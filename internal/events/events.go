// Package events implements the asynchronous communication substrate of
// CORBA-LC (paper §2.1.2): for each event kind produced by a component,
// the framework opens a push-model event channel; consumers subscribe to
// express interest in that kind.
//
// A Hub manages one Channel per event type ID. The channel is built for
// fan-out: Push writes each event once, into the channel's ring, and each
// subscriber reads the ring through its own cursor on a dedicated
// delivery goroutine, so a publish costs the same at any fan-out. A
// subscriber Config.Depth events behind is full: the policy then holds
// the publisher (Block) or skips that subscriber's oldest event
// (DropOldest), counted in Dropped. A delivery loop takes up to
// DefaultMaxBatch events per pass as a read-only view of the ring, valid
// only during the consumer call, and can hand the run to a
// BatchConsumer, which is how remote subscribers ride the transport's
// write coalescer.
package events

import (
	"errors"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Event is one occurrence pushed through a channel. The payload is
// opaque to the framework (producers typically CDR-encode it against the
// event's IDL type).
type Event struct {
	// TypeID is the event kind's repository ID, e.g.
	// "IDL:media/FrameReady:1.0".
	TypeID string
	// Source names the emitting component instance.
	Source string
	// Seq is the channel-assigned publication sequence number.
	Seq uint64
	// Data is the payload.
	Data []byte
}

// Consumer receives events one at a time; it runs on the subscriber's
// delivery goroutine, in publication order.
type Consumer func(Event)

// BatchConsumer receives a run of queued events in one call — whatever
// the delivery loop drained in one pass, at most DefaultMaxBatch. The
// slice is a read-only view of the channel's ring, valid only during the
// call: a consumer must not write it, and one that retains events past
// its return must copy them.
type BatchConsumer func([]Event)

// OverflowPolicy selects behaviour when a subscriber is full.
type OverflowPolicy int

// Overflow policies.
const (
	// Block makes Push wait for the slowest subscriber (backpressure).
	Block OverflowPolicy = iota
	// DropOldest skips a full subscriber's oldest event.
	DropOldest
)

// ErrClosed reports publication on a closed channel.
var ErrClosed = errors.New("events: channel closed")

// DefaultMaxBatch bounds one delivery-loop drain.
const DefaultMaxBatch = 64

// initialRing is a new ring's length. Push doubles the ring, up to the
// next power of two of Depth+maxBatch, only when the slowest held index
// falls a whole ring behind, so a channel pays for its backlog, not for
// its capacity.
const initialRing = 8

// Config tunes a channel (and, via the hub, every channel of a node).
type Config struct {
	// Depth is how many events a subscriber may fall behind before it
	// is full (minimum 1).
	Depth int
	// Policy selects the overflow behaviour on a full subscriber.
	Policy OverflowPolicy
	// maxBatch bounds how many events one delivery pass takes (and the
	// largest slice a BatchConsumer sees). Zero means DefaultMaxBatch;
	// the parking tests set 1.
	maxBatch int
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Depth < 1 {
		c.Depth = 1
	}
	if c.maxBatch < 1 {
		c.maxBatch = DefaultMaxBatch
	}
	return c
}

// Channel is one push event channel. Its fields sit on three groups of
// cache lines: what delivery loops read every pass, what the publisher
// writes every push, and the counters the loops write.
type Channel struct {
	typeID  string
	cfg     Config
	depth   uint64
	full    int     // the ring's largest length: nextPow2 of a depth of backlog plus a view
	ring    []Event // allocated by the first Subscribe; re-homed by Push
	closed  atomic.Bool
	nsubs   atomic.Int64
	waiting atomic.Int64 // publishers waiting in room

	// mu is the publisher lock over Push, the ring, the subscriber list
	// and teardown; a Block publisher waits in room for the slowest cursor.
	_         [64]byte
	mu        sync.Mutex
	room      sync.Cond
	subs      []*subscriber
	gate      uint64         // cached slowest cursor, never ahead of the true one
	hold      uint64         // cached slowest held, never ahead of the true one
	cleared   uint64         // ring indexes below this hold no payload
	wg        sync.WaitGroup // one count per live deliverLoop
	head      atomic.Uint64  // ring index of the next event; stored under mu
	published atomic.Uint64

	_         [64]byte
	parked    atomic.Int64 // delivery loops waiting for head to move
	delivered atomic.Uint64
	dropped   atomic.Uint64
}

type subscriber struct {
	fn   Consumer      // exactly one of fn
	bfn  BatchConsumer // and bfn is set
	wake chan struct{} // capacity 1: a parked loop's doorbell

	// mu is held only while the loop takes a view and advances its
	// cursor, so an eviction, a cancel or a re-home never lands mid-take
	// and never waits on a consumer callback.
	mu      sync.Mutex
	stopped bool

	_      [64]byte
	cursor atomic.Uint64 // ring index of the next event this subscriber takes
	held   atomic.Uint64 // first ring index its loop may still be reading; at most cursor
	parked atomic.Bool
	_      [44]byte
}

// NewChannel creates a channel for one event kind (see Config.Depth).
func NewChannel(typeID string, depth int, policy OverflowPolicy) *Channel {
	return NewChannelConfig(typeID, Config{Depth: depth, Policy: policy})
}

// NewChannelConfig creates a channel with the full set of knobs.
func NewChannelConfig(typeID string, cfg Config) *Channel {
	c := &Channel{typeID: typeID, cfg: cfg.withDefaults()}
	c.depth = uint64(c.cfg.Depth)
	c.full = 1 << bits.Len(uint(c.cfg.Depth+c.cfg.maxBatch-1))
	c.room.L = &c.mu
	return c
}

// TypeID returns the event kind this channel carries.
func (c *Channel) TypeID() string { return c.typeID }

// Stats reports lifetime counters: published events, deliveries made (one
// per event per subscriber) and deliveries dropped by overflow or cancel.
func (c *Channel) Stats() (published, delivered, dropped uint64) {
	return c.published.Load(), c.delivered.Load(), c.dropped.Load()
}

// Subscribe registers a per-event consumer and returns a cancel function.
func (c *Channel) Subscribe(name string, fn Consumer) (cancel func()) {
	return c.subscribe(&subscriber{fn: fn})
}

// SubscribeBatch registers a batch consumer: the delivery loop hands it
// whole runs as views of the ring (up to DefaultMaxBatch events).
// Returns a cancel function.
func (c *Channel) SubscribeBatch(name string, fn BatchConsumer) (cancel func()) {
	return c.subscribe(&subscriber{bfn: fn})
}

// subscribe starts s's delivery loop. Its cancel stops s at its cursor:
// the batch in hand is still delivered, what s had not taken counts as
// dropped, and a publisher waiting on s is released.
func (c *Channel) subscribe(s *subscriber) (cancel func()) {
	s.wake = make(chan struct{}, 1)
	if !c.attach(s) {
		return func() {}
	}
	go c.deliverLoop(s)

	var once sync.Once
	return func() { once.Do(func() { c.detach(s) }) }
}

// attach lists s with its cursor at head and charges its delivery loop
// to the channel's WaitGroup; false if the channel is closed.
func (c *Channel) attach(s *subscriber) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return false
	}
	if c.ring == nil {
		c.ring = make([]Event, min(initialRing, c.full))
	}
	s.cursor.Store(c.head.Load())
	s.held.Store(c.head.Load())
	c.subs = append(c.subs, s)
	c.nsubs.Add(1)
	c.wg.Add(1)
	return true
}

// detach stops s and unlists it. A loop still reading a view when it
// is unlisted would go unseen by Push and release, so the ring it may be
// reading is re-homed and left to it.
func (c *Channel) detach(s *subscriber) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.mu.Lock()
	s.stopped = true
	c.dropped.Add(c.head.Load() - s.cursor.Load())
	reading := s.held.Load() < s.cursor.Load()
	s.mu.Unlock()
	s.signal()
	if i := slices.Index(c.subs, s); i >= 0 {
		c.subs = slices.Delete(c.subs, i, i+1)
		c.nsubs.Add(-1)
	}
	c.room.Broadcast()
	if reading && c.ring != nil {
		c.rehome(c.head.Load(), len(c.ring))
	}
	c.release()
}

// SubscriberCount reports the current number of subscribers.
func (c *Channel) SubscriberCount() int { return int(c.nsubs.Load()) }

// Push publishes an event to every current subscriber, stamping its Seq
// and TypeID and writing it once whatever the fan-out; it allocates only
// when the next slot is still held, which re-homes the ring. Under Block it
// waits while a subscriber is full, and returns ErrClosed if the channel
// closes meanwhile.
func (c *Channel) Push(ev Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed.Load() {
			return ErrClosed
		}
		if len(c.subs) == 0 || c.admit() {
			break
		}
		c.room.Wait() // admit left this publisher counted in waiting
		c.waiting.Add(-1)
	}
	ev.TypeID = c.typeID
	ev.Seq = c.published.Add(1)
	if len(c.subs) == 0 {
		return nil
	}
	head := c.head.Load()
	if head-c.hold >= uint64(len(c.ring)) {
		c.hold = c.slowest(head)
		if head-c.hold >= uint64(len(c.ring)) {
			c.rehome(head, min(2*len(c.ring), c.full))
		}
	}
	c.ring[head&uint64(len(c.ring)-1)] = ev
	c.head.Store(head + 1)
	if c.parked.Load() > 0 {
		for _, s := range c.subs {
			if s.parked.Load() && s.parked.CompareAndSwap(true, false) {
				c.parked.Add(-1)
				s.signal()
			}
		}
	}
	return nil
}

// admit reports whether every subscriber has room for one more event. It
// trusts the cached gate until that says full, then rescans the cursors;
// DropOldest makes room by evicting. A Block publisher is counted in
// waiting before it reads a cursor, so a loop that advances after the
// scan sees it and wakes it; on false it stays counted. Caller holds mu.
func (c *Channel) admit() bool {
	head := c.head.Load()
	if head-c.gate < c.depth {
		return true
	}
	block := c.cfg.Policy == Block
	if block {
		c.waiting.Add(1)
	}
	c.gate = head
	for _, s := range c.subs {
		cur := s.cursor.Load()
		if !block && head-cur >= c.depth {
			cur = c.evict(s, head)
		}
		c.gate = min(c.gate, cur)
	}
	if head-c.gate >= c.depth {
		return false
	}
	if block {
		c.waiting.Add(-1)
	}
	return true
}

// slowest returns the lowest held index, head if there is none: no
// slot at or above it may be written. Caller holds mu.
func (c *Channel) slowest(head uint64) uint64 {
	low := head
	for _, s := range c.subs {
		low = min(low, s.held.Load())
	}
	return low
}

// rehome moves the untaken span [slowest cursor, head) into a new ring of
// n slots, with every subscriber's mu taken after mu so no take is
// mid-flight, and resets each held to its cursor. The old ring is left to
// the loops finishing their views of it and nobody writes it again; the
// new one pins nothing below the span. Caller holds mu.
func (c *Channel) rehome(head uint64, n int) {
	low := head
	for _, s := range c.subs {
		s.mu.Lock()
		low = min(low, s.cursor.Load())
	}
	old, ring := c.ring, make([]Event, n)
	for i := low; i < head; i++ {
		ring[i&uint64(n-1)] = old[i&uint64(len(old)-1)]
	}
	c.ring, c.gate, c.hold, c.cleared = ring, low, low, max(c.cleared, low)
	for _, s := range c.subs {
		s.held.Store(s.cursor.Load())
		s.mu.Unlock()
	}
}

// evict advances a full subscriber past its oldest event, counting the
// drop. held moves with the cursor unless the loop is reading a view of
// this ring, so a loop stalled on a view of an old one holds nothing.
// Caller holds mu.
func (c *Channel) evict(s *subscriber, head uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cursor.Load()
	if floor := head + 1 - c.depth; cur < floor {
		c.dropped.Add(floor - cur)
		if s.held.Load() == cur {
			s.held.Store(floor)
		}
		cur = floor
		s.cursor.Store(cur)
	}
	return cur
}

// release drops the payloads below every held index; the publisher
// overwrites the rest as it laps the ring. Caller holds mu.
func (c *Channel) release() {
	if c.ring == nil {
		return
	}
	head, n := c.head.Load(), uint64(len(c.ring))
	low := c.slowest(head)
	from := c.cleared
	if head > n {
		from = max(from, head-n)
	}
	for i := from; i < low; i++ {
		c.ring[i&(n-1)] = Event{}
	}
	c.cleared = max(c.cleared, low)
}

// shut marks the channel closed and wakes every delivery loop and
// waiting publisher; false when it was already closed.
func (c *Channel) shut() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return false
	}
	c.closed.Store(true)
	for _, s := range c.subs {
		s.signal()
	}
	c.room.Broadcast()
	return true
}

// Close rejects further pushes (a publisher waiting for room gets
// ErrClosed), then waits for every delivery loop to drain what was
// published and exit. Only the call that actually closes the channel
// waits; once teardown is underway, Close from any goroutine (including
// a consumer callback) returns immediately. A consumer callback must not
// be the one to initiate Close — it would wait on its own delivery loop.
func (c *Channel) Close() {
	if !c.shut() {
		return
	}
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subs, c.ring = nil, nil
	c.nsubs.Store(0)
}

// signal rings s's doorbell without blocking; a pending ring is enough.
func (s *subscriber) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// take returns the run [cursor, cursor+n) as a capacity-capped view of
// the ring, n at most maxBatch and stopping at the ring's wrap, and
// advances the cursor past it. held stays at the run's start until the
// loop has finished with the view. ok is false once s is stopped, or the
// channel is closed and s has taken everything.
func (c *Channel) take(s *subscriber) (view []Event, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	closed := c.closed.Load() // before head: a closed channel's head is final
	cur, head := s.cursor.Load(), c.head.Load()
	if s.stopped || cur == head {
		return nil, !s.stopped && !closed
	}
	i := int(cur & uint64(len(c.ring)-1))
	n := min(int(head-cur), c.cfg.maxBatch, len(c.ring)-i)
	s.held.Store(cur)
	s.cursor.Store(cur + uint64(n))
	return c.ring[i : i+n : i+n], true
}

// park sleeps a caught-up delivery loop until Push, cancel or Close rings
// its doorbell. The loop raises its flag before rechecking head and Push
// stores head before reading the flags, so one of them sees the other.
// The last loop to park drops what every loop has finished with.
func (c *Channel) park(s *subscriber) {
	s.parked.Store(true)
	if c.parked.Add(1) >= c.nsubs.Load() {
		c.mu.Lock()
		c.release()
		c.mu.Unlock()
	}
	if s.cursor.Load() == c.head.Load() && !c.closed.Load() {
		<-s.wake
	}
	if s.parked.CompareAndSwap(true, false) {
		c.parked.Add(-1)
	}
}

// deliverLoop takes up to maxBatch events per pass as a view of the ring
// and hands it to the consumer — whole to a BatchConsumer, in-order
// single calls otherwise — then raises held to the cursor, which frees
// the view's slots for the publisher.
func (c *Channel) deliverLoop(s *subscriber) {
	defer c.wg.Done()
	for {
		from := s.cursor.Load() // only this loop moves it while a publisher waits
		view, ok := c.take(s)
		if !ok {
			return
		}
		if len(view) == 0 {
			c.park(s)
			continue
		}
		if c.waiting.Load() > 0 && c.head.Load()-from >= c.depth {
			// s was full, so a publisher may be waiting on it; taking
			// mu orders the wake after that publisher's cursor scan.
			c.mu.Lock()
			c.room.Broadcast()
			c.mu.Unlock()
		}
		c.delivered.Add(uint64(len(view)))
		if s.bfn != nil {
			s.bfn(view)
		} else {
			for _, ev := range view {
				s.fn(ev)
			}
		}
		s.held.Store(s.cursor.Load())
	}
}

// ChannelStats is one channel's counters, as reported by a hub.
type ChannelStats struct {
	TypeID      string
	Published   uint64
	Delivered   uint64
	Dropped     uint64
	Subscribers int
}

// Hub manages the per-event-kind channels of one node's framework.
type Hub struct {
	mu       sync.Mutex
	channels map[string]*Channel
	cfg      Config
}

// NewHubConfig returns a hub creating channels with the full set of knobs.
func NewHubConfig(cfg Config) *Hub {
	return &Hub{channels: make(map[string]*Channel), cfg: cfg.withDefaults()}
}

// Channel returns (creating on first use) the channel for an event kind.
func (h *Hub) Channel(typeID string) *Channel {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.channels[typeID]
	if !ok {
		c = NewChannelConfig(typeID, h.cfg)
		h.channels[typeID] = c
	}
	return c
}

// ChannelStats reports every channel's counters (order unspecified).
func (h *Hub) ChannelStats() []ChannelStats {
	chans := h.snapshot()
	out := make([]ChannelStats, 0, len(chans))
	for _, c := range chans {
		pub, del, drop := c.Stats()
		out = append(out, ChannelStats{
			TypeID:      c.TypeID(),
			Published:   pub,
			Delivered:   del,
			Dropped:     drop,
			Subscribers: c.SubscriberCount(),
		})
	}
	return out
}

// snapshot lists the current channels.
func (h *Hub) snapshot() []*Channel {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Channel, 0, len(h.channels))
	for _, c := range h.channels {
		out = append(out, c)
	}
	return out
}

// Close closes every channel.
func (h *Hub) Close() {
	h.mu.Lock()
	chans := h.channels
	h.channels = make(map[string]*Channel)
	h.mu.Unlock()
	for _, c := range chans {
		c.Close()
	}
}
