package orb

import "sync/atomic"

// Stats counts the requests that crossed this ORB on both sides. Every
// ORB owns one (reachable via ORB.Stats; it backs
// ORB.RequestsServed/RequestsSent), fed directly by the dispatch loops:
// a call costs a few atomic adds and no clock read.
type Stats struct {
	sent, served counts

	// Async launches are counted apart; a settled async call also counts
	// in sent, so the totals remain "requests that left/entered this
	// ORB".
	asyncLaunched atomic.Uint64
	asyncSettled  atomic.Uint64
}

// counts tallies one side's completed requests; oneways and failures
// count in the total too.
type counts struct {
	total, oneways, errs atomic.Uint64
}

func (c *counts) record(oneway bool, err error) {
	c.total.Add(1)
	if oneway {
		c.oneways.Add(1)
	}
	if err != nil {
		c.errs.Add(1)
	}
}

// RequestsSent reports completed outbound invocations.
func (s *Stats) RequestsSent() uint64 { return s.sent.total.Load() }

// RequestsServed reports dispatched inbound requests.
func (s *Stats) RequestsServed() uint64 { return s.served.total.Load() }

// Errors reports the outbound and inbound error counts.
func (s *Stats) Errors() (sent, served uint64) { return s.sent.errs.Load(), s.served.errs.Load() }

// Oneways reports the oneway requests sent and served (already included
// in RequestsSent/RequestsServed).
func (s *Stats) Oneways() (sent, served uint64) {
	return s.sent.oneways.Load(), s.served.oneways.Load()
}

// Async reports the asynchronous invocations launched through
// CallAsyncContext and those settled (resolved by reply, failure or
// cancellation). A settled call counts in RequestsSent;
// launched-but-unsettled calls are the in-flight futures.
func (s *Stats) Async() (launched, settled uint64) {
	return s.asyncLaunched.Load(), s.asyncSettled.Load()
}

// recordAsyncDone settles one async invocation launched under
// asyncLaunched.
func (s *Stats) recordAsyncDone(err error) {
	s.asyncSettled.Add(1)
	s.sent.record(false, err)
}
