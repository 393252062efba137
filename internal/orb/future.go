// Asynchronous invocation: the AMI polling model of CORBA Messaging.
// CallAsyncContext sends a request immediately and hands back a Future
// the caller polls (Ready) or waits on (Wait); SyncScope selects how much
// of the send path a oneway invocation synchronises with, mirroring the
// CORBA Messaging SyncScope policy.
//
// Ownership discipline (DESIGN.md §12): the pooled request buffer never
// outlives the launch — every transport path either writes it to the
// socket before returning or takes ownership explicitly. The pooled
// reply buffer is owned by the PendingReply until the future resolves;
// Wait, Ready and Cancel are the release points the poolreturn analyzer
// checks.
package orb

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"corbalc/internal/giop"
	"corbalc/internal/svcctx"
)

// SyncScope selects how much of the send path a oneway invocation waits
// for, after CORBA Messaging's SyncScope policy.
type SyncScope int

const (
	// SyncWithTransport (the default) returns once the request has been
	// flushed to the transport: the caller knows the bytes reached the
	// socket, and keeps ownership of the request buffer throughout.
	SyncWithTransport SyncScope = iota
	// SyncNone returns as soon as the transport accepts the frame:
	// ownership of the request buffer transfers to the transport's write
	// path (the coalescer releases it after the batch flushes), and no
	// delivery outcome is reported — fire and forget.
	SyncNone
)

// PendingReply is a transport's handle on one in-flight asynchronous
// call: the demultiplexer slot awaiting the reply. The Future serialises
// all access — implementations may assume Recv/TryRecv/Abandon are never
// invoked concurrently.
type PendingReply interface {
	// Recv blocks until the reply is delivered (ownership of the pooled
	// message transfers to the caller), the call fails terminally, or
	// ctx is done — the latter returns ctx's error WITHOUT abandoning
	// the call, so a bounded Wait can poll again later.
	Recv(ctx context.Context) (*giop.Message, error)
	// TryRecv polls without blocking: done reports whether the call
	// reached a terminal outcome (reply m transferred, or err).
	TryRecv() (m *giop.Message, done bool, err error)
	// Abandon gives up the call: the demux slot is freed, the server is
	// notified (GIOP CancelRequest), and a reply that raced in is
	// released. Called at most once, never concurrently with Recv.
	Abandon()
}

// AsyncChannel is optionally implemented by channels that can register a
// reply listener without parking a goroutine on it (iiop's multiplexed
// connection). Channels without it are adapted via a per-call goroutine.
type AsyncChannel interface {
	// CallAsync registers requestID in the reply demultiplexer and
	// writes req; the request buffer is NOT retained (same contract as
	// Call), so the caller may recycle it once CallAsync returns.
	CallAsync(ctx context.Context, req *giop.Message, requestID uint32) (PendingReply, error)
}

// OnewayChannel is optionally implemented by channels that can take
// ownership of a oneway frame instead of blocking until it is flushed
// (SyncNone). On success the message belongs to the channel, which
// releases it after the write completes; on error the caller retains
// ownership (and may retry another profile).
type OnewayChannel interface {
	SendOwned(ctx context.Context, req *giop.Message) error
}

// errNoAsync reports a channel (or pool stripe) that implements neither
// AsyncChannel nor OnewayChannel; callers fall back to the synchronous
// primitives.
var errNoAsync = errors.New("orb: channel does not support async calls")

// ErrFutureCancelled is the cause recorded when Future.Cancel resolves a
// future (wrapped in CORBA::TIMEOUT; test with errors.Is).
var ErrFutureCancelled = errors.New("orb: future cancelled")

// Future tracks one asynchronous invocation from launch to resolution.
// It resolves exactly once — with the decoded reply outcome, a transport
// failure, or cancellation — and is safe for concurrent use.
type Future struct {
	orb    *ORB
	op     string
	callID string
	reqID  uint32
	result Unmarshaller
	pr     PendingReply // nil once resolved, or for collocated launches

	mu        sync.Mutex
	cond      sync.Cond
	resolved  bool
	cancelled bool
	waiting   bool
	interrupt context.CancelFunc // set while a Wait is blocked in Recv
	err       error
}

// Operation returns the invoked operation name.
func (f *Future) Operation() string { return f.op }

// CallID returns the call's end-to-end correlation ID (the SvcCallID
// service context both sides of the call observe).
func (f *Future) CallID() string { return f.callID }

// Done reports whether the future has resolved (without polling the
// transport; see Ready).
func (f *Future) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.resolved
}

// Err returns the resolved outcome (nil on success); valid only after
// Wait returned or Ready/Done reported true.
func (f *Future) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Ready polls the transport without blocking: it reports whether the
// future has resolved, decoding the reply (and releasing its pooled
// buffer) when it just arrived.
func (f *Future) Ready() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.resolved {
		return true
	}
	if f.waiting || f.cancelled {
		// A blocked Wait (or a cancel in flight) owns the PendingReply.
		return false
	}
	m, done, err := f.pr.TryRecv()
	if !done {
		return false
	}
	f.resolve(m, err)
	f.cond.Broadcast()
	return true
}

// Wait blocks until the future resolves or ctx is done, returning the
// call's outcome. A ctx expiry does NOT resolve the future: the call
// stays in flight and Wait may be called again (AMI polling); use Cancel
// to give the call up. Concurrent Waits are safe — one polls the
// transport, the rest queue on its resolution.
func (f *Future) Wait(ctx context.Context) error {
	wctx, stop, err, done := f.claimWait(ctx)
	if done {
		return err
	}
	m, rerr := f.pr.Recv(wctx)
	stop()
	return f.settleWait(ctx, m, rerr)
}

// claimWait blocks until the future settles, the ctx expires, or the
// caller becomes the polling waiter (done=false: it must Recv on wctx
// and then settleWait).
func (f *Future) claimWait(ctx context.Context) (wctx context.Context, stop context.CancelFunc, err error, done bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.resolved {
			return nil, nil, f.err, true
		}
		if f.cancelled {
			// Cancel lost its waiter (ctx expiry below); finalise here.
			f.finishCancel()
			f.cond.Broadcast()
			return nil, nil, f.err, true
		}
		if !f.waiting {
			break
		}
		if ctx.Done() != nil && ctx.Err() != nil {
			return nil, nil, ctxError(ctx, ctx.Err()), true
		}
		f.cond.Wait()
	}
	f.waiting = true
	wctx, stop = context.WithCancel(ctx)
	f.interrupt = stop
	return wctx, stop, nil, false
}

// settleWait is the second half of Wait: the polling waiter hands back
// the Recv outcome and the future settles (or stays in flight on a
// caller-ctx expiry).
func (f *Future) settleWait(ctx context.Context, m *giop.Message, err error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	defer f.cond.Broadcast()
	f.waiting = false
	f.interrupt = nil
	switch {
	case f.cancelled:
		// Cancel interrupted the receive; it owns the resolution. A
		// reply that won the race is released — the caller asked for the
		// call to be dropped.
		if m != nil {
			m.Release()
		}
		f.finishCancel()
	case err != nil && ctxDone(ctx, err):
		// The caller's ctx expired: hand the PendingReply back and
		// leave the call in flight.
		return ctxError(ctx, err)
	default:
		f.resolve(m, err)
	}
	return f.err
}

// Cancel gives up on the call: the reply slot is freed, the server is
// notified with a GIOP CancelRequest, and the future resolves with
// CORBA::TIMEOUT wrapping ErrFutureCancelled. Idempotent; a no-op once
// resolved.
func (f *Future) Cancel() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.resolved || f.cancelled {
		return
	}
	f.cancelled = true
	if f.waiting {
		// The blocked Wait owns the PendingReply: interrupt its receive
		// and let it finalise the cancellation.
		if f.interrupt != nil {
			f.interrupt()
		}
		for !f.resolved {
			f.cond.Wait()
		}
		return
	}
	f.finishCancel()
	f.cond.Broadcast()
}

// finishCancel abandons the in-flight call and resolves the future as
// cancelled. Caller holds f.mu.
func (f *Future) finishCancel() {
	if f.pr != nil {
		f.pr.Abandon()
	}
	f.complete(&wrappedException{SystemException: Timeout(), cause: ErrFutureCancelled})
}

// resolve maps a terminal PendingReply outcome to the call's result:
// decoding the reply (and releasing its pooled buffer) on success,
// wrapping transport failures in the CORBA exception model otherwise.
// Caller holds f.mu.
func (f *Future) resolve(m *giop.Message, err error) {
	var res error
	switch {
	case err != nil:
		var se *SystemException
		switch {
		case errors.As(err, &se):
			res = err
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			res = &wrappedException{SystemException: Timeout(), cause: err}
		default:
			res = fmt.Errorf("%w: %v", CommFailure(), err)
		}
	default:
		sc := clientScratchPool.Get().(*clientScratch)
		res = f.orb.decodeReply(sc, m, f.reqID, f.result)
		clientScratchPool.Put(sc)
	}
	f.complete(res)
}

// complete records the resolution: outcome and stats. Caller holds
// f.mu.
func (f *Future) complete(res error) {
	f.resolved = true
	f.pr = nil
	f.err = res
	f.orb.stats.recordAsyncDone(res)
}

// CallAsyncContext launches an asynchronous invocation (the AMI polling
// model): the request is built and written immediately, and the returned
// Future tracks the reply. On a collocated target the call executes
// synchronously and the future comes back already resolved. A launch
// failure (no reachable profile, dead connection) is returned directly
// and no future is created.
func (r *ObjectRef) CallAsyncContext(ctx context.Context, op string, args Marshaller, result Unmarshaller) (*Future, error) {
	if r.ior.IsNil() {
		return nil, ObjectNotExist()
	}
	o := r.orb
	if err := ctx.Err(); err != nil {
		return nil, ctxError(ctx, err)
	}
	callID := svcctx.CallID(ctx)
	if callID == "" {
		callID = svcctx.NewCallID()
	}

	reqID := o.nextRequestID()
	objectKey, local, err := r.targetKey()
	if err != nil {
		return nil, err
	}

	// The scratch state is free as soon as the request is encoded
	// (EncodeRequest copies everything into the pooled encoder), so it
	// does not ride along with the future.
	sc := clientScratchPool.Get().(*clientScratch)
	msg, err := o.buildRequest(ctx, sc, callID, reqID, objectKey, op, args, true)
	clientScratchPool.Put(sc)
	if err != nil {
		return nil, err
	}

	fu := &Future{orb: o, op: op, callID: callID, reqID: reqID, result: result}
	fu.cond.L = &fu.mu
	o.stats.asyncLaunched.Add(1)

	if local {
		reply, herr := o.HandleMessage(ctx, msg)
		msg.Release()
		fu.mu.Lock()
		if herr != nil {
			fu.complete(herr)
		} else {
			fu.resolve(reply, nil)
		}
		fu.mu.Unlock()
		return fu, nil
	}

	pr, err := r.dispatchAsync(ctx, msg, reqID)
	if err != nil {
		msg.Release()
		fu.mu.Lock()
		fu.complete(err)
		fu.mu.Unlock()
		return nil, err
	}
	fu.pr = pr
	return fu, nil
}

// dispatchAsync launches the built request over the reference's
// profiles. On success the message has been consumed (written and
// releasable, or ownership moved to the adapter goroutine); on error the
// caller still owns it.
func (r *ObjectRef) dispatchAsync(ctx context.Context, msg *giop.Message, reqID uint32) (PendingReply, error) {
	o := r.orb
	var lastErr error
	rc := r.resolved(ctx)
	for i := range rc.profiles {
		ch := rc.chans[i]
		if ch == nil {
			var err error
			tp := rc.profiles[i]
			if ch, err = o.channelFor(ctx, tp.Tag, tp.Data); err != nil {
				if ctxDone(ctx, err) {
					return nil, ctxError(ctx, err)
				}
				lastErr = err
				continue
			}
		}
		if ac, ok := ch.(AsyncChannel); ok {
			pr, err := ac.CallAsync(ctx, msg, reqID)
			if err == nil {
				msg.Release()
				return pr, nil
			}
			if errors.Is(err, errNoAsync) {
				return adaptSyncCall(ctx, ch, msg, reqID), nil
			}
			if ctxDone(ctx, err) {
				return nil, ctxError(ctx, err)
			}
			lastErr = err
			continue
		}
		return adaptSyncCall(ctx, ch, msg, reqID), nil
	}
	if lastErr == nil {
		return nil, NoImplement()
	}
	var se *SystemException
	if errors.As(lastErr, &se) {
		return nil, lastErr
	}
	return nil, fmt.Errorf("%w: %v", CommFailure(), lastErr)
}

// syncOutcome is the single delivery of a sync-adapted call.
type syncOutcome struct {
	m   *giop.Message
	err error
}

// syncPending adapts a synchronous Channel.Call to the PendingReply
// shape: a goroutine parks on the call and delivers its outcome exactly
// once into a buffered channel.
type syncPending struct {
	cancel context.CancelFunc // aborts the parked Call
	ch     chan syncOutcome
	done   bool // outcome consumed (Future-serialised, no lock needed)
}

// adaptSyncCall wraps a synchronous channel in a PendingReply. Ownership
// of msg moves to the adapter goroutine, which releases it when the call
// returns.
func adaptSyncCall(ctx context.Context, ch Channel, msg *giop.Message, reqID uint32) PendingReply {
	cctx, cancel := context.WithCancel(ctx)
	p := &syncPending{cancel: cancel, ch: make(chan syncOutcome, 1)}
	//lint:ignore goroutinelifetime bounded by the call itself: ch.Call returns when the reply arrives, cctx is cancelled (Abandon/launch ctx), or the channel's CallTimeout fires
	go func() {
		reply, err := ch.Call(cctx, msg, reqID)
		msg.Release()
		p.ch <- syncOutcome{m: reply, err: err}
	}()
	return p
}

// Recv implements PendingReply.
func (p *syncPending) Recv(ctx context.Context) (*giop.Message, error) {
	select {
	case out := <-p.ch:
		p.done = true
		return out.m, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TryRecv implements PendingReply.
func (p *syncPending) TryRecv() (*giop.Message, bool, error) {
	select {
	case out := <-p.ch:
		p.done = true
		return out.m, true, out.err
	default:
		return nil, false, nil
	}
}

// Abandon implements PendingReply: aborting the parked call guarantees a
// prompt outcome delivery, which is consumed so a reply that raced the
// abort is released.
func (p *syncPending) Abandon() {
	if p.done {
		return
	}
	p.cancel()
	out := <-p.ch
	p.done = true
	if out.m != nil {
		out.m.Release()
	}
}
