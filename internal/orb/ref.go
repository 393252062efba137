package orb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"corbalc/internal/cdr"
	"corbalc/internal/giop"
	"corbalc/internal/ior"
	"corbalc/internal/svcctx"
)

// ObjectRef is a client-side reference to a (possibly remote) CORBA
// object: the dynamic-invocation analogue of a generated stub. It is safe
// for concurrent use.
type ObjectRef struct {
	orb *ORB
	ior *ior.IOR

	// resolvedChans caches the per-profile channel pools: the IOR is
	// immutable and pools live for the ORB's lifetime (failures evict
	// stripes inside a pool, never the pool itself), so re-deriving the
	// endpoint key and profile ordering on every call would be pure
	// overhead on the invocation hot path.
	resolvedChans atomic.Pointer[refChannels]

	// iiopKey caches the object key decoded from the (immutable) IOR's
	// IIOP profile — decoding it per call costs several allocations.
	iiopKeyOnce sync.Once
	iiopKey     []byte
	iiopKeyErr  error
}

// iiopObjectKey returns the object key from the ref's IIOP profile, nil
// when the IOR carries none.
func (r *ObjectRef) iiopObjectKey() ([]byte, error) {
	r.iiopKeyOnce.Do(func() {
		if p := r.ior.Profile(ior.TagInternetIOP); p != nil {
			ip, err := ior.DecodeIIOPProfile(p)
			if err != nil {
				r.iiopKeyErr = err
				return
			}
			r.iiopKey = ip.ObjectKey
		}
	})
	return r.iiopKey, r.iiopKeyErr
}

// refChannels is one generation of an ObjectRef's resolved transport
// channels, aligned index-for-index with its ordered profiles. A nil
// channel marks a profile whose transport could not resolve at caching
// time (e.g. not registered yet); those fall back to per-call lookup.
type refChannels struct {
	gen      uint64
	profiles []ior.TaggedProfile
	chans    []Channel
}

// resolved returns the ref's cached channels, (re)building the cache
// when absent or invalidated by ORB Shutdown.
func (r *ObjectRef) resolved(ctx context.Context) *refChannels {
	gen := r.orb.chanGen.Load()
	if rc := r.resolvedChans.Load(); rc != nil && rc.gen == gen {
		return rc
	}
	profiles := orderedProfiles(r.ior)
	chans := make([]Channel, len(profiles))
	for i, tp := range profiles {
		if ch, err := r.orb.channelFor(ctx, tp.Tag, tp.Data); err == nil {
			chans[i] = ch
		}
	}
	rc := &refChannels{gen: gen, profiles: profiles, chans: chans}
	r.resolvedChans.Store(rc)
	return rc
}

// NewRef wraps an IOR in an invocable reference bound to this ORB.
func (o *ORB) NewRef(r *ior.IOR) *ObjectRef {
	return &ObjectRef{orb: o, ior: r}
}

// ResolveStr parses a stringified IOR or corbaloc URL and returns a
// reference.
func (o *ORB) ResolveStr(s string) (*ObjectRef, error) {
	r, err := ior.Parse(s)
	if err != nil {
		return nil, err
	}
	return o.NewRef(r), nil
}

// IOR returns the reference's underlying IOR.
func (r *ObjectRef) IOR() *ior.IOR { return r.ior }

// Marshaller writes request arguments; Unmarshaller reads reply results.
type (
	Marshaller   func(*cdr.Encoder)
	Unmarshaller func(*cdr.Decoder) error
)

// InvokeContext performs a synchronous request under ctx: op is the
// operation name, args (may be nil) marshals the in-parameters, result
// (may be nil) unmarshals the reply body. The context's deadline is
// propagated to the server in a SvcDeadline service context; expiry or
// cancellation aborts the call with CORBA::TIMEOUT and (on IIOP) emits a
// GIOP CancelRequest. User and system exceptions surface as errors
// (*UserException and *SystemException; match them with errors.As).
func (r *ObjectRef) InvokeContext(ctx context.Context, op string, args Marshaller, result Unmarshaller) error {
	return r.invoke(ctx, op, args, result, true, SyncWithTransport)
}

// InvokeOnewayContext sends a request under ctx without waiting for any
// reply, synchronised with the transport (SyncWithTransport): it returns
// once the frame reached the socket.
func (r *ObjectRef) InvokeOnewayContext(ctx context.Context, op string, args Marshaller) error {
	return r.invoke(ctx, op, args, nil, false, SyncWithTransport)
}

// InvokeOnewayScoped sends a oneway request under the given SyncScope:
// SyncWithTransport waits for the frame to reach the socket, SyncNone
// returns as soon as the transport accepts it (ownership of the request
// buffer moves to the transport's write path).
func (r *ObjectRef) InvokeOnewayScoped(ctx context.Context, op string, args Marshaller, scope SyncScope) error {
	return r.invoke(ctx, op, args, nil, false, scope)
}

// localKey extracts the object key from the in-process profile if the
// reference designates an object served by this very ORB.
func (r *ObjectRef) localKey() ([]byte, bool) {
	p := r.ior.Profile(ior.TagCorbalcInProcess)
	if p == nil {
		return nil, false
	}
	i := bytes.IndexByte(p, 0)
	if i < 0 || string(p[:i]) != r.orb.id {
		return nil, false
	}
	return p[i+1:], true
}

// ctxDone reports whether a channel error should be attributed to the
// caller's context rather than the channel: either the context is already
// done, or the error chain says so.
func ctxDone(ctx context.Context, err error) bool {
	return ctx.Err() != nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ctxError maps a context-attributed failure to the CORBA exception
// model: both expiry and cancellation surface as CORBA::TIMEOUT (there is
// no standard "cancelled" system exception), with the context error
// preserved in the chain for errors.Is.
func ctxError(ctx context.Context, err error) error {
	cause := ctx.Err()
	if cause == nil {
		cause = err
	}
	var se *SystemException
	if errors.As(err, &se) {
		return err
	}
	return &wrappedException{SystemException: Timeout(), cause: cause}
}

// deadlineReply attributes a CORBA::TIMEOUT reply to the caller's own
// deadline. The deadline travels with the request (SvcDeadline), so the
// server's timer and the client's race to report the same expiry; when
// the server wins, its bare TIMEOUT gets the chain ctxError builds when
// the client wins, so errors.Is(err, context.DeadlineExceeded) holds
// whichever side noticed first.
func deadlineReply(ctx context.Context, err error) error {
	if se, ok := err.(*SystemException); ok && se.Name == "TIMEOUT" {
		if _, bounded := ctx.Deadline(); bounded {
			return &wrappedException{SystemException: se, cause: context.DeadlineExceeded}
		}
	}
	return err
}

// wrappedException is a system exception that also preserves an
// underlying cause for errors.Is (e.g. context.DeadlineExceeded).
type wrappedException struct {
	*SystemException
	cause error
}

func (w *wrappedException) Error() string {
	return fmt.Sprintf("%v: %v", w.SystemException, w.cause)
}

func (w *wrappedException) Unwrap() []error { return []error{w.SystemException, w.cause} }

// targetKey resolves the object key addressing this reference's target,
// reporting whether the target is collocated with this ORB.
func (r *ObjectRef) targetKey() (objectKey []byte, local bool, err error) {
	o := r.orb
	if k, ok := r.localKey(); ok {
		return k, true, nil
	}
	if k, kerr := r.iiopObjectKey(); kerr != nil {
		return nil, false, fmt.Errorf("orb: bad IIOP profile: %w", kerr)
	} else if k != nil {
		return k, false, nil
	}
	// Fall back to any profile whose transport is registered and can
	// extract the object key (vendor profiles embed it).
	found := false
	for tag, data := range r.ior.Profiles() {
		tr, ok := o.transportFor(tag)
		if !ok {
			continue
		}
		found = true
		if ke, ok := tr.(KeyExtractor); ok {
			if k, kerr := ke.ObjectKey(data); kerr == nil {
				return k, false, nil
			}
		}
	}
	if !found {
		return nil, false, NoImplement()
	}
	return nil, false, nil
}

func (r *ObjectRef) invoke(ctx context.Context, op string, args Marshaller, result Unmarshaller, twoway bool, scope SyncScope) error {
	if r.ior.IsNil() {
		return ObjectNotExist()
	}
	o := r.orb
	if err := ctx.Err(); err != nil {
		// Expired before any wire activity: nothing to cancel.
		return ctxError(ctx, err)
	}
	// Build the request message once, independent of transport.
	reqID := o.nextRequestID()
	objectKey, local, err := r.targetKey()
	if err != nil {
		return err
	}

	sc := clientScratchPool.Get().(*clientScratch)
	defer clientScratchPool.Put(sc)
	sc.transferred = false
	msg, err := o.buildRequest(ctx, sc, svcctx.CallID(ctx), reqID, objectKey, op, args, twoway)
	if err != nil {
		return err
	}
	// Channels do not retain the request past Call/Send (the Channel
	// contract), and the collocated path decodes within HandleMessage,
	// so once dispatch returns the request buffer can be recycled — the
	// one exception is a SyncNone oneway, whose buffer ownership moved
	// to the transport (sc.transferred).
	defer func() {
		if !sc.transferred {
			msg.Release()
		}
	}()

	err = r.dispatch(ctx, sc, msg, reqID, result, twoway, local, scope)
	o.stats.sent.record(!twoway, err)
	return err
}

// dispatch moves the built request over the collocated fast path or the
// reference's profiles and decodes the reply. A SyncNone oneway that a
// channel accepts via SendOwned sets sc.transferred: the request buffer
// now belongs to the transport's write path, not the invoke frame.
func (r *ObjectRef) dispatch(ctx context.Context, sc *clientScratch, msg *giop.Message, reqID uint32, result Unmarshaller, twoway, local bool, scope SyncScope) error {
	o := r.orb
	if local {
		reply, err := o.HandleMessage(ctx, msg)
		if err != nil {
			return err
		}
		if !twoway {
			return nil
		}
		return deadlineReply(ctx, o.decodeReply(sc, reply, reqID, result))
	}

	// Remote: pick the first profile with a registered transport,
	// preferring IIOP. A failure attributed to the caller's context does
	// not fail over to the next profile (the caller gave up, not the
	// channel) and keeps the channel cached — other multiplexed calls on
	// it are unaffected.
	var lastErr error
	rc := r.resolved(ctx)
	for i := range rc.profiles {
		ch := rc.chans[i]
		if ch == nil {
			var err error
			tp := rc.profiles[i]
			if ch, err = o.channelFor(ctx, tp.Tag, tp.Data); err != nil {
				if ctxDone(ctx, err) {
					return ctxError(ctx, err)
				}
				lastErr = err
				continue
			}
		}
		if !twoway {
			if scope == SyncNone {
				if oc, ok := ch.(OnewayChannel); ok {
					err := oc.SendOwned(ctx, msg)
					if err == nil {
						sc.transferred = true
						return nil
					}
					if !errors.Is(err, errNoSendOwned) {
						if ctxDone(ctx, err) {
							return ctxError(ctx, err)
						}
						lastErr = err
						continue
					}
					// Channel cannot take ownership: degrade to the
					// synchronised send below.
				}
			}
			if err := ch.Send(ctx, msg); err != nil {
				if ctxDone(ctx, err) {
					return ctxError(ctx, err)
				}
				// Stripe-level eviction already happened inside the pool.
				lastErr = err
				continue
			}
			return nil
		}
		reply, err := ch.Call(ctx, msg, reqID)
		if err != nil {
			if ctxDone(ctx, err) {
				return ctxError(ctx, err)
			}
			lastErr = err
			continue
		}
		return deadlineReply(ctx, o.decodeReply(sc, reply, reqID, result))
	}
	if lastErr == nil {
		return NoImplement()
	}
	var se *SystemException
	if errors.As(lastErr, &se) {
		return lastErr
	}
	return fmt.Errorf("%w: %v", CommFailure(), lastErr)
}

// orderedProfiles lists the reference's profiles with IIOP first and the
// in-process profile excluded (it is handled before dialing).
func orderedProfiles(r *ior.IOR) []ior.TaggedProfile {
	n := 0
	for range r.Profiles() {
		n++
	}
	out := make([]ior.TaggedProfile, 0, n)
	for tag, data := range r.Profiles() {
		if tag == ior.TagInternetIOP {
			out = append(out, ior.TaggedProfile{Tag: tag, Data: data})
		}
	}
	for tag, data := range r.Profiles() {
		if tag != ior.TagInternetIOP && tag != ior.TagCorbalcInProcess {
			out = append(out, ior.TaggedProfile{Tag: tag, Data: data})
		}
	}
	return out
}

// clientScratch is the pooled per-invocation encode/decode state: the
// request header (service-context slice and call-ID buffer keep their
// capacity across calls) and the reply decoder + header. Nothing in it
// escapes an invocation: EncodeRequest copies header fields into the
// encoder, and every reply value that outlives decodeReply is detached.
type clientScratch struct {
	req   giop.RequestHeader
	idbuf []byte
	dec   cdr.Decoder
	rh    giop.ReplyHeader
	// transferred records that the request buffer's ownership moved to
	// the transport (SyncNone oneway), so invoke must not release it.
	// Reset at the top of every invocation.
	transferred bool
}

var clientScratchPool = sync.Pool{New: func() any { return new(clientScratch) }}

// buildRequest encodes a request into a pooled message; the caller owns
// it and must Release it once every transport attempt is done with it.
func (o *ORB) buildRequest(ctx context.Context, sc *clientScratch, callID string, reqID uint32, objectKey []byte, op string, args Marshaller, twoway bool) (*giop.Message, error) {
	e := giop.GetBodyEncoder(o.order)
	if callID == "" {
		// The caller carries no ID: mint one straight into the reusable
		// buffer, so it travels only on the wire and allocates nothing.
		sc.idbuf = svcctx.AppendNewCallID(sc.idbuf[:0])
	} else {
		sc.idbuf = append(sc.idbuf[:0], callID...)
	}
	hdr := &sc.req
	hdr.RequestID = reqID
	hdr.ResponseExpected = twoway
	hdr.ObjectKey = objectKey
	hdr.Operation = op
	hdr.ServiceContexts = svcctx.InjectIDBytes(ctx, sc.idbuf, hdr.ServiceContexts[:0])
	if err := giop.EncodeRequest(e, o.version, hdr); err != nil {
		e.Release()
		return nil, err
	}
	if args != nil {
		giop.AlignBody(e, o.version)
		args(e)
	}
	return giop.MessageFromEncoder(giop.Header{
		Version: o.version, Order: o.order, Type: giop.MsgRequest,
	}, e), nil
}

// decodeReply consumes a reply message: whatever the outcome, the
// (pooled) reply is released before returning, so every value that
// escapes — decoded results, exception members — is copied out first.
func (o *ORB) decodeReply(sc *clientScratch, reply *giop.Message, reqID uint32, result Unmarshaller) error {
	if reply == nil {
		return fmt.Errorf("%w: empty reply", CommFailure())
	}
	defer reply.Release()
	if reply.Header.Type != giop.MsgReply {
		return fmt.Errorf("%w: unexpected %v", CommFailure(), reply.Header.Type)
	}
	d := &sc.dec
	reply.ResetBodyDecoder(d)
	h := &sc.rh
	if err := giop.DecodeReplyInto(d, reply.Header.Version, h); err != nil {
		return fmt.Errorf("orb: bad reply header: %w", err)
	}
	if h.RequestID != reqID {
		return fmt.Errorf("%w: reply id %d for request %d", CommFailure(), h.RequestID, reqID)
	}
	switch h.Status {
	case giop.ReplyNoException:
		if result == nil {
			return nil
		}
		if err := giop.AlignBodyDecode(d, reply.Header.Version); err != nil {
			return err
		}
		if err := result(d); err != nil {
			return fmt.Errorf("%w: decoding result: %v", Marshal(), err)
		}
		return nil
	case giop.ReplyUserException:
		if err := giop.AlignBodyDecode(d, reply.Header.Version); err != nil {
			return err
		}
		id, err := d.ReadString()
		if err != nil {
			return fmt.Errorf("%w: decoding exception id: %v", Marshal(), err)
		}
		// The exception error outlives this call (callers inspect Body at
		// leisure), so detach the members from the pooled reply buffer.
		return &UserException{ID: id, Body: d.Detach()}
	case giop.ReplySystemException:
		if err := giop.AlignBodyDecode(d, reply.Header.Version); err != nil {
			return err
		}
		se, err := unmarshalSystemException(d)
		if err != nil {
			return fmt.Errorf("%w: decoding system exception: %v", Marshal(), err)
		}
		return se
	case giop.ReplyLocationForward:
		return fmt.Errorf("%w: location forward not supported", NoImplement())
	default:
		return fmt.Errorf("%w: reply status %v", CommFailure(), h.Status)
	}
}
