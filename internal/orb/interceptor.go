package orb

import (
	"context"
	"sync/atomic"
	"time"
)

// RequestInfo is the per-call metadata exposed to interceptors — the
// lightweight analogue of CORBA Portable Interceptors' ClientRequestInfo/
// ServerRequestInfo. The same value flows through both points of one
// side's chain, so SendRequest/ReceiveRequest state can be correlated in
// ReceiveReply/SendReply.
type RequestInfo struct {
	// Operation is the invoked operation name.
	Operation string
	// ObjectKey addresses the target object. On the server side it
	// aliases the pooled request buffer, which is recycled once the
	// dispatch completes: an interceptor that retains the RequestInfo
	// past its callbacks must copy ObjectKey first.
	ObjectKey []byte
	// RequestID is the GIOP request ID (per-connection scope).
	RequestID uint32
	// CallID is the end-to-end correlation ID carried in the SvcCallID
	// service context; both sides of one call observe the same value.
	CallID string
	// Deadline is the call's absolute deadline (zero when unbounded).
	Deadline time.Time
	// Oneway reports a request that expects no reply.
	Oneway bool
	// Async reports an invocation launched through CallAsyncContext
	// (client side only; on the wire an async call is an ordinary
	// request).
	Async bool
	// Local reports a collocated dispatch that never reached a transport
	// (client side only).
	Local bool
	// Elapsed is the time spent in the call; set at the reply points.
	Elapsed time.Duration
	// Err is the call outcome; set at the reply points (nil on success).
	Err error
}

// ClientInterceptor observes outbound invocations. SendRequest runs after
// the request message is built, before it is handed to a transport;
// ReceiveReply runs after the reply is decoded (or the call failed), with
// Elapsed and Err populated.
type ClientInterceptor interface {
	SendRequest(ctx context.Context, info *RequestInfo)
	ReceiveReply(ctx context.Context, info *RequestInfo)
}

// ServerInterceptor observes inbound dispatches. ReceiveRequest runs
// after the request header is decoded, before the servant; returning a
// non-nil error rejects the request with that error (typically a
// *SystemException) without dispatching. SendReply runs after the servant
// returned, with Elapsed and Err populated.
type ServerInterceptor interface {
	ReceiveRequest(ctx context.Context, info *RequestInfo) error
	SendReply(ctx context.Context, info *RequestInfo)
}

// AddClientInterceptor appends an interceptor to the outbound chain.
// The chain is copy-on-write: registration copies it under the ORB
// mutex, so the per-call snapshot in clientChain is a bare atomic load.
func (o *ORB) AddClientInterceptor(ci ClientInterceptor) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var cur []ClientInterceptor
	if p := o.clientInterceptors.Load(); p != nil {
		cur = *p
	}
	next := make([]ClientInterceptor, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, ci)
	o.clientInterceptors.Store(&next)
}

// AddServerInterceptor appends an interceptor to the inbound chain,
// with AddClientInterceptor's copy-on-write discipline.
func (o *ORB) AddServerInterceptor(si ServerInterceptor) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var cur []ServerInterceptor
	if p := o.serverInterceptors.Load(); p != nil {
		cur = *p
	}
	next := make([]ServerInterceptor, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, si)
	o.serverInterceptors.Store(&next)
}

// clientChain snapshots the outbound interceptor chain. Lock-free: this
// runs on every invocation in every caller goroutine, where a shared
// RWMutex would bounce its cacheline between cores.
func (o *ORB) clientChain() []ClientInterceptor {
	if p := o.clientInterceptors.Load(); p != nil {
		return *p
	}
	return nil
}

// serverChain snapshots the inbound interceptor chain.
func (o *ORB) serverChain() []ServerInterceptor {
	if p := o.serverInterceptors.Load(); p != nil {
		return *p
	}
	return nil
}

// Stats is the shipped stats/latency collector: it counts requests and
// accumulates service times on both sides of the ORB. Every ORB owns one
// (reachable via ORB.Stats; it backs ORB.RequestsServed/RequestsSent),
// fed intrinsically by the dispatch loops rather than through the
// interceptor chain — so the chain can stay empty, and the invocation
// fast path skips the per-call RequestInfo.
type Stats struct {
	sent        atomic.Uint64
	served      atomic.Uint64
	sentNanos   atomic.Int64
	srvNanos    atomic.Int64
	sentSamples atomic.Uint64
	srvSamples  atomic.Uint64
	sentErrs    atomic.Uint64
	srvErrs     atomic.Uint64

	// Oneways and async launches are counted apart from the two-way
	// request/reply traffic: a oneway has no reply clock to feed the
	// latency estimate, and an async call's clock runs from launch to
	// future resolution, not inside one dispatch frame. Oneways and
	// settled async calls still count in sent/served, so the totals
	// remain "requests that left/entered this ORB".
	oneSent       atomic.Uint64
	oneServed     atomic.Uint64
	asyncLaunched atomic.Uint64
	asyncSettled  atomic.Uint64
}

// latencySampleMask selects the 1-in-8 calls whose service time feeds
// MeanLatency on the intrinsic (empty-chain) fast path. Counts and
// error tallies stay exact; only the latency clock is sampled — two
// clock reads per call are measurable at throughput-benchmark rates.
const latencySampleMask = 7

// RequestsSent reports completed outbound invocations.
func (s *Stats) RequestsSent() uint64 { return s.sent.Load() }

// RequestsServed reports dispatched inbound requests.
func (s *Stats) RequestsServed() uint64 { return s.served.Load() }

// Errors reports the outbound and inbound error counts.
func (s *Stats) Errors() (sent, served uint64) { return s.sentErrs.Load(), s.srvErrs.Load() }

// Oneways reports the oneway requests sent and served (already included
// in RequestsSent/RequestsServed, but excluded from MeanLatency).
func (s *Stats) Oneways() (sent, served uint64) {
	return s.oneSent.Load(), s.oneServed.Load()
}

// Async reports the asynchronous invocations launched through
// CallAsyncContext and those settled (resolved by reply, failure or
// cancellation). A settled call counts in RequestsSent;
// launched-but-unsettled calls are the in-flight futures.
func (s *Stats) Async() (launched, settled uint64) {
	return s.asyncLaunched.Load(), s.asyncSettled.Load()
}

// recordOnewaySent and recordOnewayServed tally a oneway on the
// intrinsic path: counted in the totals and the oneway bucket, never in
// the latency clock.
func (s *Stats) recordOnewaySent(err error) {
	s.sent.Add(1)
	s.oneSent.Add(1)
	if err != nil {
		s.sentErrs.Add(1)
	}
}

func (s *Stats) recordOnewayServed(err error) {
	s.served.Add(1)
	s.oneServed.Add(1)
	if err != nil {
		s.srvErrs.Add(1)
	}
}

// recordAsyncLaunch and recordAsyncDone bracket one async invocation:
// launch when the request hits the transport, done when the future
// resolves — the elapsed time between them is the AMI completion time,
// which feeds the outbound latency estimate unsampled.
func (s *Stats) recordAsyncLaunch() { s.asyncLaunched.Add(1) }

func (s *Stats) recordAsyncDone(elapsed time.Duration, err error) {
	s.asyncSettled.Add(1)
	s.recordSentTimed(elapsed, err)
}

// sentStart and servedStart open an intrinsic fast-path record: they
// read the clock only for the sampled 1-in-8 calls, returning the zero
// time otherwise. The paired record* call closes the record.
func (s *Stats) sentStart() time.Time {
	if s.sent.Load()&latencySampleMask == 0 {
		return time.Now()
	}
	return time.Time{}
}

func (s *Stats) servedStart() time.Time {
	if s.served.Load()&latencySampleMask == 0 {
		return time.Now()
	}
	return time.Time{}
}

// recordSent and recordServed are the intrinsic entry points the ORB
// dispatch loops call directly, bypassing the RequestInfo an interceptor
// would need. start comes from sentStart/servedStart (zero = unsampled).
func (s *Stats) recordSent(start time.Time, err error) {
	s.sent.Add(1)
	if !start.IsZero() {
		s.sentNanos.Add(int64(time.Since(start)))
		s.sentSamples.Add(1)
	}
	if err != nil {
		s.sentErrs.Add(1)
	}
}

func (s *Stats) recordServed(start time.Time, err error) {
	s.served.Add(1)
	if !start.IsZero() {
		s.srvNanos.Add(int64(time.Since(start)))
		s.srvSamples.Add(1)
	}
	if err != nil {
		s.srvErrs.Add(1)
	}
}

// recordSentTimed and recordServedTimed record a call whose service
// time was measured by the caller (the interceptor-chain path, which
// needs the elapsed time for RequestInfo anyway).
func (s *Stats) recordSentTimed(elapsed time.Duration, err error) {
	s.sent.Add(1)
	s.sentNanos.Add(int64(elapsed))
	s.sentSamples.Add(1)
	if err != nil {
		s.sentErrs.Add(1)
	}
}

func (s *Stats) recordServedTimed(elapsed time.Duration, err error) {
	s.served.Add(1)
	s.srvNanos.Add(int64(elapsed))
	s.srvSamples.Add(1)
	if err != nil {
		s.srvErrs.Add(1)
	}
}

// MeanLatency reports the mean outbound and inbound service times (zero
// when no calls completed on that side). On the intrinsic fast path the
// mean is computed over a 1-in-8 sample of calls.
func (s *Stats) MeanLatency() (sent, served time.Duration) {
	if n := s.sentSamples.Load(); n > 0 {
		sent = time.Duration(uint64(s.sentNanos.Load()) / n)
	}
	if n := s.srvSamples.Load(); n > 0 {
		served = time.Duration(uint64(s.srvNanos.Load()) / n)
	}
	return sent, served
}
