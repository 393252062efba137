// Asynchronous client-side primitives: CallAsync registers a reply slot
// in the connection's demultiplexer and returns without parking a
// goroutine on it — the future's Wait/Ready poll the slot instead — and
// SendOwned hands a oneway frame to the write coalescer, which releases
// the pooled buffer after the batch carrying it flushes (SyncNone).
package iiop

import (
	"context"

	"corbalc/internal/giop"
	"corbalc/internal/orb"
)

// CallAsync implements orb.AsyncChannel: the request is registered in
// the pending map and written (through the coalescer, so it group-commits
// with concurrent traffic) before returning; the reply slot comes back
// as an orb.PendingReply. The request buffer is not retained — the
// caller may recycle it once CallAsync returns.
func (c *clientConn) CallAsync(ctx context.Context, req *giop.Message, requestID uint32) (orb.PendingReply, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ch := getReplyChan()
	if err := c.register(requestID, ch); err != nil {
		return nil, err
	}
	if err := c.write(req); err != nil {
		// Not recycled: a concurrent fail() may already have snapshotted
		// (and be closing) this channel.
		c.mu.Lock()
		delete(c.pending, requestID)
		c.mu.Unlock()
		return nil, err
	}
	return &pendingReply{c: c, ch: ch, id: requestID, hdr: req.Header}, nil
}

// SendOwned implements orb.OnewayChannel: ownership of req moves to the
// write coalescer on success (released after its batch flushes); on
// error the caller retains the message and may retry another profile.
func (c *clientConn) SendOwned(ctx context.Context, req *giop.Message) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.co.writeOwned(req)
}

// pendingReply is one registered reply slot on a multiplexed connection:
// the iiop realisation of orb.PendingReply. The owning Future serialises
// Recv/TryRecv/Abandon, so the only concurrency here is with the
// connection's readLoop, reaper and fail — all of which follow the
// delete-then-deliver ownership handoff on the one-shot channel.
type pendingReply struct {
	c   *clientConn
	ch  chan *giop.Message
	id  uint32
	hdr giop.Header // request dialect, for the CancelRequest
}

// Recv implements orb.PendingReply. A ctx expiry returns ctx's error
// without abandoning the call — the slot stays registered and a later
// Recv (or TryRecv) can still collect the reply.
func (p *pendingReply) Recv(ctx context.Context) (*giop.Message, error) {
	if done := ctx.Done(); done != nil {
		select {
		case m, ok := <-p.ch:
			return p.consume(m, ok)
		case <-done:
			return nil, ctx.Err()
		}
	}
	m, ok := <-p.ch
	return p.consume(m, ok)
}

// TryRecv implements orb.PendingReply.
func (p *pendingReply) TryRecv() (*giop.Message, bool, error) {
	select {
	case m, ok := <-p.ch:
		m, err := p.consume(m, ok)
		return m, true, err
	default:
		return nil, false, nil
	}
}

// consume maps a delivery on the reply channel to the call outcome,
// recycling the channel on the paths where the delivery was provably its
// last traffic (mirroring Call).
func (p *pendingReply) consume(m *giop.Message, ok bool) (*giop.Message, error) {
	switch {
	case !ok:
		// fail closed the channel; it cannot be recycled.
		p.c.mu.Lock()
		err := p.c.err
		p.c.mu.Unlock()
		if err == nil {
			err = errConnClosed
		}
		return nil, err
	case m == nil:
		// The reaper expired the call and freed the pending slot.
		p.c.sendCancel(p.id, p.hdr)
		replyChanPool.Put(p.ch)
		return nil, orb.Timeout()
	}
	replyChanPool.Put(p.ch)
	return m, nil
}

// Abandon implements orb.PendingReply, freeing the demux slot and
// notifying the server; a reply that raced in is released rather than
// left pinned in the one-shot channel.
func (p *pendingReply) Abandon() {
	p.c.abandonCall(p.id, p.hdr, p.ch)
}
