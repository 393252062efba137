// Striped per-endpoint connection pools. The ORB's channel cache used
// to hold exactly one Channel per endpoint, so every concurrent caller
// funneled through one connection's write path and one reply-demux map.
// It now holds a channelPool: N independently-dialed stripes, giving
// the transport N write paths and N sharded pending maps, while failure
// handling narrows from "drop the endpoint" to "evict one stripe" — the
// surviving stripes keep serving during the lazy redial.
//
// Stripe selection is processor-affine rather than round-robin: each
// caller draws a reusable hint from a sync.Pool (which is per-P under
// the hood), so goroutines scheduled on the same core keep hitting the
// same stripe. That keeps one stripe's pending-map mutex and write
// coalescer core-local — round-robin made every caller touch every
// stripe, bouncing all N locks across all cores — while different cores
// naturally land on different stripes. Dial failures still fall through
// to the remaining stripes, so availability is unchanged.
package orb

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"corbalc/internal/giop"
)

// PoolSizer is optionally implemented by a Transport to set how many
// channels the ORB pools per endpoint. Transports that do not implement
// it (or return a value below 1) get a single channel, which keeps the
// pool transparent for stateless transports like simnet.
type PoolSizer interface {
	ChannelPoolSize() int
}

// unusable is optionally implemented by channels that can report a dead
// connection before a call is wasted on it (e.g. iiop's clientConn after
// its read loop failed). The pool evicts such stripes eagerly.
type unusable interface {
	Unusable() bool
}

// errPoolClosed reports a call raced with ORB shutdown.
var errPoolClosed = errors.New("orb: channel pool closed")

// channelPool is the Channel the ORB caches per endpoint: a fixed set
// of lazily-dialed stripes. It implements Channel itself, so the rest
// of the invocation path is unchanged.
type channelPool struct {
	transport Transport
	profile   []byte
	size      int
	// rr seeds newly-minted affinity hints; it advances only when a
	// hint is created (or a stripe fails over), not per call.
	rr atomic.Uint32
	// hints holds per-P stripe affinity tokens: a caller's pick reuses
	// whatever stripe its core used last.
	hints sync.Pool

	mu      sync.RWMutex
	stripes []Channel
	dialing []*dialCall // per stripe: its one dial in flight, if any
	closed  bool
}

// dialCall is a stripe's dial in flight; err is set before done closes.
type dialCall struct {
	done chan struct{}
	err  error
}

// stripeHint is a per-P affinity token: the stripe index this core's
// callers should keep using. It lives in a sync.Pool purely for the
// pool's per-P caching — the value is advisory, never a lock.
type stripeHint struct {
	idx uint32
}

func newChannelPool(t Transport, profile []byte) *channelPool {
	size := 1
	if ps, ok := t.(PoolSizer); ok {
		if n := ps.ChannelPoolSize(); n > 0 {
			size = n
		}
	}
	return &channelPool{
		transport: t,
		profile:   append([]byte(nil), profile...),
		size:      size,
		stripes:   make([]Channel, size),
		dialing:   make([]*dialCall, size),
	}
}

// stripe returns the live channel at index i, dialing lazily and
// evicting a channel that reports itself unusable (its replacement is
// dialed immediately). Dials happen outside the pool lock, one per stripe
// at a time: a caller that finds one in flight waits for it while its
// context allows, and shares its failure unless that was the dialer's
// own context giving up.
func (p *channelPool) stripe(ctx context.Context, i int) (Channel, error) {
	for {
		ch, closed := p.peek(i)
		if closed {
			return nil, errPoolClosed
		}
		if ch != nil {
			if u, ok := ch.(unusable); !ok || !u.Unusable() {
				return ch, nil
			}
			p.evict(i, ch)
		}
		p.mu.Lock()
		d, mine := p.dialing[i], false
		if d == nil && p.stripes[i] == nil && !p.closed {
			d, mine = &dialCall{done: make(chan struct{})}, true
			p.dialing[i] = d
		}
		p.mu.Unlock()
		if mine {
			return p.dial(ctx, i, d)
		}
		if d != nil { // else the stripe filled or the pool closed meanwhile
			select {
			case <-d.done:
				if d.err != nil {
					return nil, d.err
				}
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
}

// peek reads slot i and the closed flag.
func (p *channelPool) peek(i int) (ch Channel, closed bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.stripes[i], p.closed
}

// dial runs the dial stripe made the caller own, installs its channel unless
// the pool closed meanwhile, and releases the callers waiting on d.
func (p *channelPool) dial(ctx context.Context, i int, d *dialCall) (Channel, error) {
	nc, err := p.transport.Dial(ctx, p.profile)
	p.mu.Lock()
	p.dialing[i] = nil
	closed := p.closed
	if err == nil && !closed {
		p.stripes[i] = nc
	}
	p.mu.Unlock()
	switch {
	case err != nil && !ctxDone(ctx, err):
		d.err = err
	case err == nil && closed:
		_ = nc.Close()
		nc, err = nil, errPoolClosed
	}
	close(d.done)
	return nc, err
}

// evict forgets ch if it still occupies slot i and closes it. Identity
// comparison makes eviction idempotent and keeps a racing redial's
// fresh channel safe.
func (p *channelPool) evict(i int, ch Channel) {
	p.mu.Lock()
	if p.stripes[i] == ch {
		p.stripes[i] = nil
	}
	p.mu.Unlock()
	_ = ch.Close()
}

// pick selects this core's affine stripe, falling through the remaining
// stripes when its dial fails. The first dial error is reported only
// when every stripe is down; a context failure aborts immediately (the
// caller gave up, not the stripes).
func (p *channelPool) pick(ctx context.Context) (Channel, int, error) {
	h, _ := p.hints.Get().(*stripeHint)
	if h == nil {
		// First pick on this P (or the GC emptied the pool): seed the
		// hint round-robin so cores spread across stripes.
		h = &stripeHint{idx: p.rr.Add(1)}
	}
	start := h.idx
	var firstErr error
	for a := 0; a < p.size; a++ {
		i := int((start + uint32(a)) % uint32(p.size))
		ch, err := p.stripe(ctx, i)
		if err != nil {
			if ctxDone(ctx, err) || errors.Is(err, errPoolClosed) {
				p.hints.Put(h)
				return nil, 0, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if a != 0 {
			// Failed over: rebind this core's affinity to the stripe
			// that actually worked.
			h.idx = start + uint32(a)
		}
		p.hints.Put(h)
		return ch, i, nil
	}
	p.hints.Put(h)
	return nil, 0, firstErr
}

// Call implements Channel. A failed call evicts its stripe (the other
// stripes keep serving) and returns the error to the caller: in-flight
// work on a dead connection is not transparently retried — at-most-once
// semantics stay with the caller — but the next call redistributes over
// the surviving stripes while the evicted one redials lazily.
func (p *channelPool) Call(ctx context.Context, req *giop.Message, requestID uint32) (*giop.Message, error) {
	ch, i, err := p.pick(ctx)
	if err != nil {
		return nil, err
	}
	reply, err := ch.Call(ctx, req, requestID)
	if err != nil && !ctxDone(ctx, err) {
		p.evict(i, ch)
	}
	return reply, err
}

// SendOwned implements OnewayChannel (SyncNone oneways) by delegating to
// a stripe that supports it, with Call's eviction discipline. Ownership
// of req transfers only on success.
func (p *channelPool) SendOwned(ctx context.Context, req *giop.Message) error {
	ch, i, err := p.pick(ctx)
	if err != nil {
		return err
	}
	oc, ok := ch.(OnewayChannel)
	if !ok {
		return errNoSendOwned
	}
	if err := oc.SendOwned(ctx, req); err != nil {
		if !ctxDone(ctx, err) && !errors.Is(err, errNoSendOwned) {
			p.evict(i, ch)
		}
		return err
	}
	return nil
}

// Send implements Channel (oneway requests), with Call's eviction
// discipline.
func (p *channelPool) Send(ctx context.Context, req *giop.Message) error {
	ch, i, err := p.pick(ctx)
	if err != nil {
		return err
	}
	if err := ch.Send(ctx, req); err != nil {
		if !ctxDone(ctx, err) {
			p.evict(i, ch)
		}
		return err
	}
	return nil
}

// takeAll marks the pool closed and hands back the live stripes; nil
// when already closed.
func (p *channelPool) takeAll() []Channel {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	stripes := p.stripes
	p.stripes = make([]Channel, p.size)
	return stripes
}

// Close implements Channel, closing every dialed stripe.
func (p *channelPool) Close() error {
	for _, ch := range p.takeAll() {
		if ch != nil {
			_ = ch.Close()
		}
	}
	return nil
}
