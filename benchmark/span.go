package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Outside-in tracing: every span is recorded from the benchmark's own
// files, around a call into a layer's public function (or inside the
// benchmark's own servant). Nothing under internal/ is instrumented.

// span is one timed interval. Spans of one request share Req; Parent is
// the span that caused this one (0 for a root). Name is held as a
// string so the trace reads without a side table; every name is a
// constant, so recording one allocates nothing.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace. Past it spans are counted but
// not kept; the clock reads still happen, so the measured tracing
// overhead stays honest.
const maxSpans = 1 << 18

// tracer collects spans in memory until the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	// calls counts traced calls in flight. The serving side looks for a
	// benchmark call id only while it is non-zero: reading a call id
	// allocates, and the untraced slices of a traced run must stay as
	// cheap as an untraced run.
	calls   atomic.Int32
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// add records a finished span under a caller-chosen id.
func (t *tracer) add(name string, id, parent, req uint64, start, end time.Time) {
	s := span{Name: name, ID: id, Parent: parent, Req: req, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// callID renders the correlation id that carries a request id and the
// calling span across the wire ("bench:<req>.<span>"), so that spans
// recorded on the serving side can name their parent. Only operations in
// traced slices carry one.
func callID(req, parent uint64) string {
	b := make([]byte, 0, 32)
	b = append(b, callIDPrefix...)
	b = strconv.AppendUint(b, req, 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, parent, 10)
	return string(b)
}

const callIDPrefix = "bench:"

// parseCallID is callID's inverse; ok is false for ids the benchmark
// did not mint.
func parseCallID(id string) (req, parent uint64, ok bool) {
	rest, found := strings.CutPrefix(id, callIDPrefix)
	if !found {
		return 0, 0, false
	}
	r, p, found := strings.Cut(rest, ".")
	if !found {
		return 0, 0, false
	}
	req, err1 := strconv.ParseUint(r, 10, 64)
	parent, err2 := strconv.ParseUint(p, 10, 64)
	return req, parent, err1 == nil && err2 == nil
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (children may overlap each
// other and may overrun the parent; both are clipped).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanSummary is the per-name digest written next to the raw spans.
type spanSummary struct {
	Count     int     `json:"count"`
	P50NS     float64 `json:"p50_ns"`
	SelfP50NS float64 `json:"self_p50_ns"`
}

// traceFileSpans bounds how many raw spans go to trace.json; the
// summary covers all recorded spans.
const traceFileSpans = 20000

// write dumps the trace to path: a per-name summary of every recorded
// span plus the first traceFileSpans raw spans.
func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	spans, dropped := t.spans, t.dropped
	t.mu.Unlock()

	self := selfTimes(spans)
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID]))
	}
	summary := make(map[string]spanSummary, len(durs))
	for name, d := range durs {
		summary[name] = spanSummary{Count: len(d), P50NS: median(d), SelfP50NS: median(selfs[name])}
	}
	out := struct {
		Workload string                 `json:"workload"`
		Recorded int                    `json:"spans_recorded"`
		Dropped  int                    `json:"spans_dropped"`
		Summary  map[string]spanSummary `json:"summary"`
		Spans    []span                 `json:"spans"`
	}{workload, len(spans), dropped, summary, spans[:min(len(spans), traceFileSpans)]}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
