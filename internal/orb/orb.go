// Package orb implements the lightweight Object Request Broker at the
// heart of CORBA-LC: an object adapter with dynamically-invoked servants,
// GIOP request dispatch, client-side object references with pluggable
// transports, and the CORBA exception model.
//
// The ORB is transport-neutral: it consumes and produces giop.Message
// values. Transports (the real IIOP/TCP transport in internal/iiop, the
// virtual in-process transport in internal/simnet) register themselves by
// IOR profile tag and move those messages.
package orb

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/giop"
	"corbalc/internal/ior"
	"corbalc/internal/svcctx"
)

// Channel is an established duplex connection to a remote endpoint over
// which GIOP messages travel. Call blocks until the reply whose request
// ID matches arrives, the context is done, or the channel fails; on
// cancellation implementations should notify the peer (the IIOP channel
// emits a GIOP CancelRequest). Implementations must be safe for
// concurrent use.
//
// Ownership: implementations must not retain req (or any slice of its
// body) after Call or Send returns — the caller recycles the request
// buffer immediately afterwards. A reply returned by Call is transferred
// to the caller, who releases it once decoded.
type Channel interface {
	Call(ctx context.Context, req *giop.Message, requestID uint32) (*giop.Message, error)
	Send(ctx context.Context, req *giop.Message) error
	Close() error
}

// Transport dials endpoints named by an IOR profile it understands.
type Transport interface {
	// Tag is the IOR profile tag this transport consumes.
	Tag() uint32
	// Endpoint extracts a cache key (e.g. "host:port") from the profile.
	Endpoint(profile []byte) (string, error)
	// Dial opens a channel to the endpoint described by the profile,
	// bounding connection establishment by ctx.
	Dial(ctx context.Context, profile []byte) (Channel, error)
}

// KeyExtractor is optionally implemented by transports whose profiles
// embed the object key (vendor profiles without an accompanying IIOP
// profile). The ORB uses it to address requests sent over that
// transport.
type KeyExtractor interface {
	ObjectKey(profile []byte) ([]byte, error)
}

// IORDecorator mutates every IOR the ORB mints, letting transports add
// their own profiles (e.g. the simnet virtual endpoint).
type IORDecorator func(ref *ior.IOR, objectKey string)

// ORB is one Object Request Broker instance. A process typically runs one
// ORB per CORBA-LC node.
type ORB struct {
	id      string // unique instance identity for collocation shortcuts
	adapter *Adapter
	version giop.Version
	order   cdr.ByteOrder

	// The registry tables below are read on every invocation by every
	// caller goroutine but mutated only by rare control-plane calls
	// (RegisterTransport, AddIORDecorator, channel adoption), so they are
	// copy-on-write: readers load an immutable snapshot through an
	// atomic pointer — no shared lock, no cacheline bouncing between
	// cores — while writers copy-and-publish under mu.
	mu         sync.Mutex // serialises COW writers and guards host/port
	transports atomic.Pointer[map[uint32]Transport]
	channels   atomic.Pointer[map[string]Channel] // endpoint -> live channel
	decorators atomic.Pointer[[]IORDecorator]
	host       string
	port       uint16

	reqID atomic.Uint32

	// chanGen versions the channel cache: Shutdown bumps it so
	// ObjectRef-level resolved-channel caches invalidate themselves.
	chanGen atomic.Uint64

	// stats holds the request counters backing RequestsServed (read by
	// tests and by the benchmark).
	stats *Stats
}

var orbSeq atomic.Uint64

// processNonce makes ORB identities unique across processes, so the
// in-process collocation profile of an IOR minted elsewhere can never
// match a local ORB by accident.
var processNonce = func() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the PID; collisions then require PID reuse AND
		// matching ORB sequence numbers.
		return fmt.Sprintf("p%d", os.Getpid())
	}
	return hex.EncodeToString(b[:])
}()

// Option configures an ORB.
type Option func(*ORB)

// WithGIOPVersion selects the GIOP version for outgoing requests
// (incoming requests are answered in the version they arrive in).
func WithGIOPVersion(v giop.Version) Option { return func(o *ORB) { o.version = v } }

// WithByteOrder selects the byte order of outgoing messages.
func WithByteOrder(bo cdr.ByteOrder) Option { return func(o *ORB) { o.order = bo } }

// NewORB creates an ORB with an empty adapter and no transports.
func NewORB(opts ...Option) *ORB {
	o := &ORB{
		id:      fmt.Sprintf("orb-%s-%d", processNonce, orbSeq.Add(1)),
		adapter: NewAdapter(),
		version: giop.V12,
		order:   cdr.LittleEndian,
		stats:   &Stats{},
	}
	transports := make(map[uint32]Transport)
	channels := make(map[string]Channel)
	o.transports.Store(&transports)
	o.channels.Store(&channels)
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// Adapter returns the ORB's object adapter.
func (o *ORB) Adapter() *Adapter { return o.adapter }

// Stats returns the ORB's request counters.
func (o *ORB) Stats() *Stats { return o.stats }

// RequestsServed reports how many inbound requests this ORB dispatched.
func (o *ORB) RequestsServed() uint64 { return o.stats.RequestsServed() }

// RegisterTransport makes a transport available for outbound calls.
func (o *ORB) RegisterTransport(t Transport) {
	o.mu.Lock()
	defer o.mu.Unlock()
	cur := *o.transports.Load()
	next := make(map[uint32]Transport, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[t.Tag()] = t
	o.transports.Store(&next)
}

// transportFor returns the transport registered for an IOR profile tag.
func (o *ORB) transportFor(tag uint32) (Transport, bool) {
	t, ok := (*o.transports.Load())[tag]
	return t, ok
}

// AddIORDecorator registers a decorator applied to every IOR this ORB
// mints from now on.
func (o *ORB) AddIORDecorator(d IORDecorator) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var cur []IORDecorator
	if p := o.decorators.Load(); p != nil {
		cur = *p
	}
	next := make([]IORDecorator, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, d)
	o.decorators.Store(&next)
}

// SetEndpoint records the advertised IIOP endpoint used when minting
// IORs; the IIOP server calls it once it is listening.
func (o *ORB) SetEndpoint(host string, port uint16) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.host, o.port = host, port
}

// Endpoint returns the advertised host and port ("" and 0 if unset).
func (o *ORB) Endpoint() (string, uint16) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.host, o.port
}

// Activate binds a servant under key and returns an IOR designating it.
// The IOR carries the IIOP profile (if an endpoint is set) plus an
// in-process profile enabling collocated-call shortcutting.
func (o *ORB) Activate(key string, s Servant) *ior.IOR {
	o.adapter.Activate(key, s)
	return o.NewIOR(s.RepositoryID(), key)
}

// NewIOR mints an IOR for an object key served by this ORB.
func (o *ORB) NewIOR(typeID, key string) *ior.IOR {
	host, port := o.Endpoint()
	var ref *ior.IOR
	if host != "" {
		ref = ior.New(typeID, host, port, []byte(key))
	} else {
		ref = &ior.IOR{TypeID: typeID}
	}
	ref.AddProfile(ior.TagCorbalcInProcess, []byte(o.id+"\x00"+key))
	if p := o.decorators.Load(); p != nil {
		for _, d := range *p {
			d(ref, key)
		}
	}
	return ref
}

// nextRequestID returns a fresh outbound request id.
func (o *ORB) nextRequestID() uint32 { return o.reqID.Add(1) }

// HandleMessage dispatches an inbound GIOP message and returns the reply
// message, or nil when no reply is due (oneway requests, CancelRequest).
// Transports call this from their receive loops; ctx bounds the dispatch
// and is the parent of the context servants observe (transports cancel it
// when the peer sends CancelRequest or the connection dies).
func (o *ORB) HandleMessage(ctx context.Context, m *giop.Message) (*giop.Message, error) {
	switch m.Header.Type {
	case giop.MsgRequest:
		return o.handleRequest(ctx, m)
	case giop.MsgLocateRequest:
		return o.handleLocateRequest(m)
	case giop.MsgCancelRequest, giop.MsgCloseConnection:
		// CancelRequest is honoured at the transport layer (the IIOP
		// server cancels the in-flight request's context); an ORB fed one
		// directly has nothing to do.
		return nil, nil
	case giop.MsgMessageError:
		return nil, errors.New("orb: peer reported message error")
	default:
		return giop.NewMessage(giop.Header{
			Version: m.Header.Version, Order: m.Header.Order, Type: giop.MsgMessageError,
		}, nil), nil
	}
}

// serverScratch is the pooled per-dispatch decode state: the body
// decoder, the request header (whose service-context slice keeps its
// capacity across dispatches), and the operation-name intern cache
// (dispatched operations draw from a small fixed vocabulary, so after
// warm-up the per-request name string stops allocating).
type serverScratch struct {
	dec cdr.Decoder
	req giop.RequestHeader
	ops map[string]string
	// cctx is the reusable call-ID context a dispatch carrying a call ID
	// binds; it is rebound per request, so (like every pooled request
	// context) servants must not retain it.
	cctx svcctx.CallCtx
}

var scratchPool = sync.Pool{New: func() any {
	return &serverScratch{ops: make(map[string]string)}
}}

func (o *ORB) handleRequest(ctx context.Context, m *giop.Message) (*giop.Message, error) {
	v := m.Header.Version
	sc := scratchPool.Get().(*serverScratch)
	defer scratchPool.Put(sc)
	d := &sc.dec
	m.ResetBodyDecoder(d)
	req := &sc.req
	if err := giop.DecodeRequestIntoInterned(d, v, req, sc.ops); err != nil {
		return nil, fmt.Errorf("orb: bad request header: %w", err)
	}
	if err := giop.AlignBodyDecode(d, v); err != nil {
		return nil, fmt.Errorf("orb: bad request body padding: %w", err)
	}

	// Derive the request context from the propagated service contexts.
	// A shipped deadline is applied directly on the transport's context:
	// context.WithDeadline links to a cancellable parent such as iiop's
	// pooled request context without a propagation goroutine only when
	// no value wrapper sits in between. The call ID is then bound on top
	// through the scratch's reusable CallCtx, which allocates nothing.
	scInfo := svcctx.ExtractBytes(req.ServiceContexts)
	if scInfo.HasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, scInfo.Deadline)
		defer cancel()
	}
	if len(scInfo.CallID) > 0 {
		sc.cctx.Bind(ctx, scInfo.CallID)
		ctx = &sc.cctx
	}

	// The reply is built optimistically in its final wire form: header
	// first (status NO_EXCEPTION), then the servant's results encoded
	// DIRECTLY into the same pooled encoder — no staging buffer, no
	// splice copy. Alignment holds because our reply headers carry no
	// service contexts, so the body always begins at stream offset 24 —
	// a multiple of 8 — in both GIOP 1.0 and 1.2 (for 1.2, AlignBody
	// re-checks this). TestReplyBodySpliceAlignment pins the invariant.
	// If the servant raises, the result bytes are truncated away and the
	// status word patched in place.
	out := giop.GetBodyEncoder(m.Header.Order)
	statusOff, err := giop.EncodeReplyPrelude(out, v, req.RequestID, giop.ReplyNoException)
	if err != nil {
		out.Release()
		return nil, err
	}
	giop.AlignBody(out, v)
	bodyStart := out.Len()

	// The shipped deadline gate: work the client already gave up on is
	// not dispatched.
	var invokeErr error
	if scInfo.HasDeadline && !time.Now().Before(scInfo.Deadline) {
		invokeErr = Timeout()
	} else if servant, ok := o.adapter.Resolve(req.ObjectKey); !ok {
		invokeErr = ObjectNotExist()
	} else {
		invokeErr = safeInvoke(ctx, servant, req.Operation, d, out)
	}
	o.stats.servedTotal.Add(1)
	o.stats.served.record(!req.ResponseExpected, invokeErr)

	if !req.ResponseExpected {
		out.Release()
		return nil, nil
	}

	status := giop.ReplyNoException
	var se *SystemException
	var ue *UserException
	if invokeErr != nil {
		status, se, ue = classifyInvokeErr(invokeErr)
	}

	if status != giop.ReplyNoException {
		// Back out whatever the servant wrote before raising and patch
		// the optimistic status word.
		out.Truncate(bodyStart)
		out.PatchULong(statusOff, uint32(status))
		if status == giop.ReplyUserException {
			out.WriteString(ue.ID)
			if ue.Payload != nil {
				ue.Payload(out)
			}
		} else {
			marshalSystemException(out, se)
		}
	}
	return giop.MessageFromEncoder(giop.Header{
		Version: v, Order: m.Header.Order, Type: giop.MsgReply,
	}, out), nil
}

// classifyInvokeErr maps a servant error to its reply status. Split out
// of handleRequest so the errors.As targets (whose addresses escape to
// the heap) cost their cells only on the error path, not per request.
func classifyInvokeErr(err error) (giop.ReplyStatus, *SystemException, *UserException) {
	var se *SystemException
	var ue *UserException
	switch {
	case errors.As(err, &ue):
		return giop.ReplyUserException, nil, ue
	case errors.As(err, &se):
		return giop.ReplySystemException, se, nil
	}
	return giop.ReplySystemException, Unknown(), nil
}

// safeInvoke shields the dispatch loop from servant panics, converting
// them to CORBA::UNKNOWN as a real ORB would.
func safeInvoke(ctx context.Context, s Servant, op string, args *cdr.Decoder, reply *cdr.Encoder) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("servant panic: %v: %w", r, Unknown())
		}
	}()
	return s.InvokeContext(ctx, op, args, reply)
}

func (o *ORB) handleLocateRequest(m *giop.Message) (*giop.Message, error) {
	v := m.Header.Version
	d := m.BodyDecoder()
	req, err := giop.DecodeLocateRequest(d, v)
	if err != nil {
		return nil, fmt.Errorf("orb: bad locate request: %w", err)
	}
	status := giop.LocateUnknownObject
	if _, ok := o.adapter.Resolve(req.ObjectKey); ok {
		status = giop.LocateObjectHere
	}
	out := giop.GetBodyEncoder(m.Header.Order)
	giop.EncodeLocateReply(out, &giop.LocateReplyHeader{RequestID: req.RequestID, Status: status})
	return giop.MessageFromEncoder(giop.Header{
		Version: v, Order: m.Header.Order, Type: giop.MsgLocateReply,
	}, out), nil
}

// channelFor returns the endpoint's channel pool via the transport
// registered for tag, creating it on first use. Pools dial lazily, so
// this never blocks on the network; dial failures surface from
// Call/Send, where the pool evicts just the failed stripe instead of
// the whole endpoint.
func (o *ORB) channelFor(ctx context.Context, tag uint32, profile []byte) (Channel, error) {
	t, ok := o.transportFor(tag)
	if !ok {
		return nil, fmt.Errorf("orb: no transport for profile tag %#x", tag)
	}
	ep, err := t.Endpoint(profile)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%#x/%s", tag, ep)

	if ch, ok := (*o.channels.Load())[key]; ok {
		return ch, nil
	}

	pool := newChannelPool(t, profile)
	winner, adopted := o.adoptChannel(key, pool)
	if !adopted {
		_ = pool.Close()
	}
	return winner, nil
}

// adoptChannel caches ch under key unless a concurrent dial won the
// race; the cached winner is returned along with whether ch was the one
// adopted. The endpoint table is copy-on-write: adoption copies it once
// per endpoint lifetime, keeping the per-call lookup in channelFor
// lock-free.
func (o *ORB) adoptChannel(key string, ch Channel) (Channel, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	cur := *o.channels.Load()
	if existing, ok := cur[key]; ok {
		return existing, false
	}
	next := make(map[string]Channel, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[key] = ch
	o.channels.Store(&next)
	return ch, true
}

// Shutdown closes all cached client channels. Bumping chanGen first
// invalidates every ObjectRef's resolved-channel cache, so refs used
// after (or across a racing) Shutdown re-resolve instead of holding
// closed pools.
func (o *ORB) Shutdown() {
	o.chanGen.Add(1)
	o.mu.Lock()
	chans := *o.channels.Load()
	empty := make(map[string]Channel)
	o.channels.Store(&empty)
	o.mu.Unlock()
	for _, ch := range chans {
		_ = ch.Close()
	}
}
