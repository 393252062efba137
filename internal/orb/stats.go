package orb

import "sync/atomic"

// Stats counts the requests that crossed this ORB on both sides. Every
// ORB owns one (reachable via ORB.Stats; it backs ORB.RequestsServed),
// fed directly by the dispatch loops: a call costs a few atomic adds and
// no clock read.
type Stats struct {
	sent, served counts
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

// RequestsServed reports dispatched inbound requests.
func (s *Stats) RequestsServed() uint64 { return s.served.total.Load() }

// Errors reports the outbound and inbound error counts.
func (s *Stats) Errors() (sent, served uint64) { return s.sent.errs.Load(), s.served.errs.Load() }

// Oneways reports the oneway requests sent and served (already included
// in the totals).
func (s *Stats) Oneways() (sent, served uint64) {
	return s.sent.oneways.Load(), s.served.oneways.Load()
}
