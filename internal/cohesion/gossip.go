package cohesion

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/orb"
)

// Gossip message kinds multiplexed through one gossip_batch frame.
const (
	gossipUpdate  = byte(1) // report (+ optional offers) to an MRM replica
	gossipSummary = byte(2) // group aggregate to a root MRM replica
	gossipDelta   = byte(3) // directory delta from the root / a relay
	gossipHint    = byte(4) // repair hint: sender's epoch, pull if behind
)

// The outbox limits: past gossipDepth waiting messages a destination
// drops its oldest (anti-entropy repairs the gap), a frame carries at
// most gossipFrame, and a drained sender waits gossipWindow for more.
const (
	gossipDepth  = 128
	gossipFrame  = 64
	gossipWindow = 2 * time.Millisecond
)

// message is one queued protocol message.
type message struct {
	kind byte
	body []byte
}

// outbox is one destination's FIFO of waiting messages, oldest first.
type outbox struct{ msgs []message }

// gossiper routes the cohesion protocol's periodic traffic (DESIGN.md
// §13.4): a destination holds an outbox and one sender only while
// messages wait for it, and the sender ships each run as one
// gossip_batch oneway under SyncNone. A slow peer loses stale gossip,
// never stalls the protocol or another destination.
type gossiper struct {
	a *Agent

	mu       sync.Mutex
	outboxes map[string]*outbox // nil once closed
	senders  sync.WaitGroup

	batches atomic.Uint64
	bytes   atomic.Uint64
}

func newGossiper(a *Agent) *gossiper {
	return &gossiper{a: a, outboxes: make(map[string]*outbox)}
}

// enqueue queues one protocol message for a destination, starting the
// destination's sender when nothing was waiting for it. The body must
// not be mutated or recycled after the call — it sits in the outbox
// until shipped.
func (g *gossiper) enqueue(dest string, kind byte, body []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.outboxes == nil {
		return
	}
	ob := g.outboxes[dest]
	if ob == nil {
		ob = &outbox{}
		g.outboxes[dest] = ob
		g.senders.Add(1)
		go g.send(dest, ob)
	}
	if len(ob.msgs) == gossipDepth {
		ob.msgs = slices.Delete(ob.msgs, 0, 1)
	}
	ob.msgs = append(ob.msgs, message{kind, body})
}

// send is ob's sender: it ships runs until the outbox is empty or
// discarded, waiting one window whenever a run leaves nothing behind.
func (g *gossiper) send(dest string, ob *outbox) {
	defer g.senders.Done()
	for run := g.take(dest, ob); run != nil; run = g.take(dest, ob) {
		g.ship(dest, run)
		if g.empty(ob) {
			time.Sleep(gossipWindow)
		}
	}
}

// take detaches ob's oldest run of at most gossipFrame messages; nil
// once ob is discarded, or empty, which unlists it.
func (g *gossiper) take(dest string, ob *outbox) []message {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.outboxes[dest] != ob {
		return nil
	}
	if len(ob.msgs) == 0 {
		delete(g.outboxes, dest)
		return nil
	}
	n := min(len(ob.msgs), gossipFrame)
	run := ob.msgs[:n:n]
	ob.msgs = ob.msgs[n:]
	return run
}

// empty reports whether nothing waits in ob.
func (g *gossiper) empty(ob *outbox) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(ob.msgs) == 0
}

// ship sends one run of protocol messages to dest as a single
// gossip_batch frame; it returns once the transport took the frame.
func (g *gossiper) ship(dest string, run []message) {
	ref, ok := g.a.refOf(dest)
	if !ok {
		return
	}
	ctx, done := g.a.rpcCtx()
	defer done()
	size := 0
	err := ref.InvokeOnewayScoped(ctx, "gossip_batch", func(e *cdr.Encoder) {
		e.WriteULong(uint32(len(run)))
		for _, m := range run {
			e.WriteOctet(m.kind)
			e.WriteOctetSeq(m.body)
		}
		size = e.Len()
	}, orb.SyncNone)
	if err == nil {
		g.batches.Add(1)
		g.bytes.Add(uint64(size))
	}
}

// waiting counts the destinations with messages waiting.
func (g *gossiper) waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.outboxes)
}

// drop discards one destination's outbox; its sender exits after the
// run in hand.
func (g *gossiper) drop(dest string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.outboxes, dest)
}

// prune discards the outbox of every destination not in the member set.
func (g *gossiper) prune(members []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for dest := range g.outboxes {
		if _, ok := slices.BinarySearch(members, dest); !ok {
			delete(g.outboxes, dest)
		}
	}
}

// close discards every outbox and waits for the senders; in-flight
// sends abort on the agent's cancelled lifetime context.
func (g *gossiper) close() {
	g.mu.Lock()
	g.outboxes = nil
	g.mu.Unlock()
	g.senders.Wait()
}
