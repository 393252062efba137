package cohesion

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/events"
	"corbalc/internal/orb"
)

// Gossip message kinds multiplexed through one gossip_batch frame.
const (
	gossipUpdate  = byte(1) // report (+ optional offers) to an MRM replica
	gossipSummary = byte(2) // group aggregate to a root MRM replica
	gossipDelta   = byte(3) // directory delta from the root / a relay
	gossipHint    = byte(4) // repair hint: sender's epoch, pull if behind
)

// kindSources are the pre-interned Event.Source values carrying the
// message kind through the hub without an allocation per enqueue.
var kindSources = [5]string{0: "?", gossipUpdate: "u", gossipSummary: "s", gossipDelta: "d", gossipHint: "h"}

func kindOf(source string) byte {
	switch source {
	case "u":
		return gossipUpdate
	case "s":
		return gossipSummary
	case "d":
		return gossipDelta
	case "h":
		return gossipHint
	}
	return 0
}

// gossiper routes the cohesion protocol's periodic traffic over the
// event fabric (DESIGN.md §12): one bounded channel per destination
// node, a batch forwarder per channel that drains whole runs and ships
// them as single gossip_batch oneways under SyncNone — so updates,
// summaries and directory deltas coalesce per destination and ride the
// transport's write coalescer instead of going out as point-to-point
// calls. The queues drop-oldest on overflow: a slow peer loses stale
// gossip, never stalls the protocol, and anti-entropy repairs the gap.
type gossiper struct {
	a   *Agent
	hub *events.Hub

	mu      sync.Mutex
	cancels map[string]func()
	closed  bool

	batches atomic.Uint64
	bytes   atomic.Uint64
}

// gossipQueue configures every destination's queue: messages for one
// peer within the 2ms window ride a single gossip_batch frame, and past
// 128 queued the oldest is dropped (anti-entropy repairs the gap).
var gossipQueue = events.Config{
	Depth:       128,
	Policy:      events.DropOldest,
	BatchWindow: 2 * time.Millisecond,
}

func newGossiper(a *Agent) *gossiper {
	return &gossiper{
		a:       a,
		hub:     events.NewHubConfig(gossipQueue),
		cancels: make(map[string]func()),
	}
}

// enqueue queues one protocol message for a destination, wiring the
// destination's forwarder on first use. The body must not be mutated or
// recycled after the call — it sits in the queue until drained.
func (g *gossiper) enqueue(dest string, kind byte, body []byte) {
	ch := g.channel(dest)
	if ch == nil {
		return
	}
	_ = ch.Push(events.Event{Source: kindSources[kind], Data: body})
}

// sendNow ships one protocol message to dest as a frame of its own,
// bypassing the queue; it returns once the transport took the frame.
func (g *gossiper) sendNow(dest string, kind byte, body []byte) {
	g.ship(dest, []events.Event{{Source: kindSources[kind], Data: body}})
}

// channel returns dest's coalescing channel, attaching its batch
// forwarder on first use; nil after close.
func (g *gossiper) channel(dest string) *events.Channel {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil
	}
	ch := g.hub.Channel(dest)
	if _, ok := g.cancels[dest]; !ok {
		g.cancels[dest] = ch.SubscribeBatch("gossip/"+dest, func(batch []events.Event) { g.ship(dest, batch) })
	}
	return ch
}

// ship sends one run of protocol messages to dest as a single
// gossip_batch frame.
func (g *gossiper) ship(dest string, batch []events.Event) {
	a := g.a
	ref, ok := a.refOf(dest)
	if !ok {
		return
	}
	ctx, done := a.rpcCtx()
	defer done()
	size := 0
	err := ref.InvokeOnewayScoped(ctx, "gossip_batch", func(e *cdr.Encoder) {
		e.WriteULong(uint32(len(batch)))
		for _, ev := range batch {
			e.WriteOctet(kindOf(ev.Source))
			e.WriteOctetSeq(ev.Data)
		}
		size = e.Len()
	}, orb.SyncNone)
	if err == nil {
		g.batches.Add(1)
		g.bytes.Add(uint64(size))
	}
}

// drop tears down one destination's channel and forwarder.
func (g *gossiper) drop(dest string) {
	g.mu.Lock()
	cancel := g.cancels[dest]
	delete(g.cancels, dest)
	g.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	g.hub.Remove(dest)
}

// prune drops every destination not in the member set, reclaiming
// queues and delivery goroutines as churn removes nodes.
func (g *gossiper) prune(members []string) {
	g.mu.Lock()
	var dead []string
	for dest := range g.cancels {
		if _, ok := slices.BinarySearch(members, dest); !ok {
			dead = append(dead, dest)
		}
	}
	g.mu.Unlock()
	for _, dest := range dead {
		g.drop(dest)
	}
}

// close cancels every forwarder and drains the hub; in-flight sends
// abort on the agent's cancelled lifetime context.
func (g *gossiper) close() {
	g.mu.Lock()
	g.closed = true
	cancels := g.cancels
	g.cancels = make(map[string]func())
	g.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	g.hub.Close()
}
