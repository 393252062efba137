package orb

import "sync/atomic"

// Stats counts the requests that crossed this ORB on both sides. Every
// ORB owns one (reachable via ORB.Stats; it backs ORB.RequestsServed),
// fed directly by the dispatch loops: a call costs a few atomic adds and
// no clock read. Only the served side keeps a total.
type Stats struct {
	sent, served counts
	servedTotal  atomic.Uint64
}

// counts tallies one side's oneway and failed requests.
type counts struct {
	oneways, errs atomic.Uint64
}

func (c *counts) record(oneway bool, err error) {
	if oneway {
		c.oneways.Add(1)
	}
	if err != nil {
		c.errs.Add(1)
	}
}

// RequestsServed reports dispatched inbound requests.
func (s *Stats) RequestsServed() uint64 { return s.servedTotal.Load() }

// Errors reports the outbound and inbound error counts.
func (s *Stats) Errors() (sent, served uint64) { return s.sent.errs.Load(), s.served.errs.Load() }

// Oneways reports the oneway requests sent and served.
func (s *Stats) Oneways() (sent, served uint64) {
	return s.sent.oneways.Load(), s.served.oneways.Load()
}
