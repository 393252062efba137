package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"corbalc/internal/leak"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i + 1)
		}
		return out
	}
	if v, ok := percentileSorted(ramp(1000), 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v supported=%v, want 990 true", v, ok)
	}
	if _, ok := percentileSorted(ramp(999), 0.99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it and must not be supported")
	}
	if v, ok := percentileSorted(ramp(21), 0.5); v != 11 || !ok {
		t.Errorf("p50 of 1..21 = %v supported=%v, want 11 true", v, ok)
	}
	if _, ok := percentileSorted(nil, 0.5); ok {
		t.Error("no samples support no percentile")
	}
}

// quartileSpread must agree with Python's statistics.quantiles(n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// quantiles([1..9, 10.5], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10.5}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
	if got, want := quartileSpread([]float64{3, 1}), 3.0/2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of two = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

// Two streams, three slices: rates are medianed over slices, p99 needs
// a thousand samples in every slice, an empty slice does not count as a
// rate of zero.
func TestReduceSlices(t *testing.T) {
	start := time.Now()
	w := &window{start: start, slices: 3, sliceLen: time.Second}
	fill := func(perSlice [3]int) *recorder {
		r, err := newRecorder(16)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.release)
		for s, n := range perSlice {
			for i := 0; i < n; i++ {
				done := start.Add(time.Duration(s)*time.Second + time.Duration(i+1)*time.Second/time.Duration(n+1))
				r.record(w, done, time.Duration(s+1)*time.Millisecond, true)
			}
		}
		r.record(w, w.end().Add(time.Millisecond), time.Millisecond, true)
		return r
	}
	st := reduceSlices([]*recorder{fill([3]int{4, 0, 2}), fill([3]int{4, 0, 2})}, 3)
	if !reflect.DeepEqual(st.counts, []int{8, 0, 4}) {
		t.Errorf("counts = %v, want [8 0 4]", st.counts)
	}
	if st.samples != 12 || st.p50 != float64(time.Millisecond) {
		t.Errorf("samples %d p50 %v, want 12 and 1ms", st.samples, st.p50)
	}
	if st.p99 != 0 {
		t.Errorf("p99 = %v from slices of under a thousand samples, want none", st.p99)
	}
	if st.rates[1] != 0 || st.opsPerS <= 0 || st.opsPerS != median([]float64{st.rates[0], st.rates[2]}) {
		t.Errorf("rates %v, ops/s %v: the empty slice must be left out of the median", st.rates, st.opsPerS)
	}
	// Slice 2's two ops per stream span from slice 0's last completion:
	// the empty second is charged to them, not skipped.
	if st.rates[2] >= st.rates[0] {
		t.Errorf("rates %v: the slice after a stall must show the stall", st.rates)
	}
}

func TestRecorderFailuresLeaveNoSample(t *testing.T) {
	w := &window{start: time.Now(), slices: 1, sliceLen: time.Second}
	r, err := newRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.release()
	r.record(w, w.start.Add(-time.Millisecond), time.Millisecond, true) // warm-up
	r.record(w, w.start.Add(time.Millisecond), time.Millisecond, false)
	r.record(w, w.start.Add(2*time.Millisecond), time.Millisecond, true)
	if closed := r.record(w, w.end().Add(time.Millisecond), time.Millisecond, true); !closed {
		t.Error("an op completing after the window must close the stream")
	}
	if r.attempted != 4 || r.failed != 1 || len(r.slice(0)) != 1 {
		t.Errorf("attempted %d failed %d samples %d, want 4 1 1", r.attempted, r.failed, len(r.slice(0)))
	}
}

func TestSeededGenerators(t *testing.T) {
	a := mixOps(rand.New(rand.NewSource(42)), 20000)
	b := mixOps(rand.New(rand.NewSource(42)), 20000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different op sequences")
	}
	if reflect.DeepEqual(a, mixOps(rand.New(rand.NewSource(43)), 20000)) {
		t.Fatal("two seeds gave the same op sequence")
	}
	kinds := map[uint8]int{}
	ids := map[string]int{}
	for _, op := range a {
		kinds[op.kind]++
		if op.kind == kindGet {
			ids[string(op.body)]++
		}
	}
	share := func(k uint8) float64 { return 100 * float64(kinds[k]) / float64(len(a)) }
	if math.Abs(share(kindAdd)-mixAddPct) > 0.5 || math.Abs(share(kindPoke)-mixPokePct) > 0.5 {
		t.Errorf("mix is %.1f%% add, %.1f%% poke; want %d%% and %d%%", share(kindAdd), share(kindPoke), mixAddPct, mixPokePct)
	}
	if len(ids) > zipfIDs {
		t.Errorf("%d distinct ids, want at most %d", len(ids), zipfIDs)
	}
	counts := make([]int, 0, len(ids))
	for _, n := range ids {
		counts = append(counts, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if hot := float64(counts[0]) / float64(kinds[kindGet]); hot < 0.15 {
		t.Errorf("hottest id takes %.2f of the reads: not a Zipf with s=%v", hot, zipfS)
	}
	// Every rendered request states the reply it must get.
	s := randStroke(rand.New(rand.NewSource(1)))
	if op := addOp(s); !strings.Contains(string(op.want), `"result":`) || op.status != 200 {
		t.Errorf("addOp = %+v", op)
	}
	if op := pokeOp(5); op.status != 202 || op.want != nil {
		t.Errorf("pokeOp = %+v", op)
	}
	if !sameJSON([]byte(`{ "result": {"x":1,"author":"a"} }`), []byte(`{"result":{"author":"a","x":1}}`)) {
		t.Error("sameJSON must ignore spelling")
	}
}

func TestCallIDRoundTrip(t *testing.T) {
	req, parent, ok := parseCallID(callID(77, 1234567890123))
	if !ok || req != 77 || parent != 1234567890123 {
		t.Errorf("parseCallID(callID(77, ...)) = %d %d %v", req, parent, ok)
	}
	for _, foreign := range []string{"", "b3f2-1a", "bench:12", "bench:x.1"} {
		if _, _, ok := parseCallID(foreign); ok {
			t.Errorf("parseCallID(%q) accepted an id the benchmark did not mint", foreign)
		}
	}
}

// Self time is the span's duration minus what its children cover:
// overlapping children count once, a child overrunning the parent is
// clipped, grandchildren do not count.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},
		{Name: "late", ID: 4, Parent: 1, Start: 90, End: 120},
		{Name: "grandchild", ID: 5, Parent: 2, Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// An open loop times each op from when it was due, so one slow op shows
// up as latency on the ops queued behind it.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const period = 2 * time.Millisecond
	begin := time.Now()
	w := &window{start: begin, slices: 1, sliceLen: 40 * time.Millisecond}
	rec, err := newRecorder(64)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.release()
	var late []time.Duration
	openLoop(w, rec, schedule{start: begin, period: period}, 64, &late, func(i int, _ *tracer) bool {
		if i == 2 {
			time.Sleep(5 * period) // stalls ops 3..6, which were due meanwhile
		}
		return true
	})
	lat := rec.slice(0)
	if len(lat) < 8 {
		t.Fatalf("only %d ops completed inside the window", len(lat))
	}
	if lat[2] < 5*period {
		t.Errorf("the slow op took %v, want at least %v", lat[2], 5*period)
	}
	// Op 3 was due one period after op 2 and could only start when op 2
	// finished four periods later.
	if lat[3] < 3*period {
		t.Errorf("op 3 waited behind the stall but its latency is %v: not timed from its due time", lat[3])
	}
	if late[3] < 3*period {
		t.Errorf("the generator started op 3 %v late, want over %v", late[3], 3*period)
	}
	if last := lat[len(lat)-1]; last > 2*period {
		t.Errorf("the last op's latency is %v: the backlog never drained", last)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lat := metricDecl{Name: "p50_us", Better: "lower", Bound: 0.10}
	rate := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		d    metricDecl
		a, b []float64
		want string
	}{
		{lat, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{lat, steady, []float64{115, 116, 114, 115, 115}, "REGRESSION"},
		{lat, steady, []float64{85, 86, 84, 85, 85}, "ok"},
		{rate, steady, []float64{85, 86, 84, 85, 85}, "REGRESSION"},
		{rate, steady, []float64{115, 116, 114, 115, 115}, "ok"},
		{lat, steady, []float64{80, 120, 100, 70, 130}, "unresolved"},
		{lat, steady, nil, "-"},
	} {
		if got := compareMetric(c.d, c.a, c.b).state; got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// BENCHMARK.json is metrics.go rendered; neither may drift.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	rendered, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(onDisk), bytes.TrimSpace(rendered)) {
		t.Error("BENCHMARK.json differs from `bash benchmark/run.sh -manifest`; regenerate it")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
}

func names(decls []metricDecl) []string {
	out := make([]string, len(decls))
	for i, d := range decls {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func emitted(rec *record) []string {
	out := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// smokeConfig shrinks a run to a fraction of a second: three short
// slices after a short warm-up.
func smokeConfig(workload string, slice time.Duration) runConfig {
	return runConfig{workload: workload, seed: 7, seconds: 3, slice: slice, warm: 50 * time.Millisecond}
}

// Every workload comes up, passes its checks on a short window, emits
// exactly the declared end-to-end metrics, none of them zero, and leaves
// no goroutine behind.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			leak.Check(t)
			slice := 100 * time.Millisecond
			if wl.name == "swarm_churn" {
				slice = 700 * time.Millisecond // a round takes most of a second
			}
			rec, err := runOne(smokeConfig(wl.name, slice))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("correct %v, %d of %d failed", rec.Correct, rec.Failed, rec.Attempted)
			}
			if got, want := emitted(rec), names(endToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("emitted %v, want exactly %v", got, want)
			}
			for k, m := range rec.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v: an end-to-end metric is never zero", k, m.Value)
				}
			}
			line, err := json.Marshal(rec.result)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("result line %s must have exactly correct, attempted, failed, metrics", line)
			}
		})
	}
}

// A traced run emits exactly the declared per-layer metrics, its ladder
// adds up, and the trace lands on disk.
func TestSmokeTraced(t *testing.T) {
	leak.Check(t)
	cfg := smokeConfig("gw_uncached", 100*time.Millisecond)
	cfg.seconds = 4
	cfg.tr = newTracer()
	cfg.out = t.TempDir()
	rec, err := runOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := emitted(rec), names(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("emitted %v, want exactly %v", got, want)
	}
	v := func(name string) float64 { return rec.Metrics[name].Value }
	sum := v("gateway.http_ns")
	for _, self := range []string{"gateway.http_self_ns", "gateway.self_ns", "dii.self_ns", "iiop.self_ns", "simnet.self_ns", "orb.self_ns"} {
		sum -= v(self)
	}
	// What is left after every layer's share is the servant, called
	// directly: a sliver of the whole.
	if sum <= 0 || sum > v("gateway.http_ns")/4 {
		t.Errorf("the ladder's self times leave %v ns for the servant", sum)
	}
	if v("gateway.cache_hit_ratio") != 0 || v("raw.fail_ratio") != 0 || v("orb.requests_served") == 0 {
		t.Errorf("gw_uncached counters: hit ratio %v, fail ratio %v, served %v", v("gateway.cache_hit_ratio"), v("raw.fail_ratio"), v("orb.requests_served"))
	}
	b, err := os.ReadFile(cfg.out + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Recorded int `json:"spans_recorded"`
		Summary  map[string]spanSummary
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"http.roundtrip", "gateway.ServeHTTP", "servant"} {
		if tr.Summary[name].Count == 0 {
			t.Errorf("trace has no %s span (summary %v)", name, tr.Summary)
		}
	}
}
