// corbalc-benchgate turns `go test -bench -benchmem` output into a
// machine-readable benchmark report and enforces allocation budgets on
// it — the perf half of the CI gate (DESIGN.md §9).
//
// Usage:
//
//	go test -run='^$' -bench=... -benchmem ./... | corbalc-benchgate \
//	    -json BENCH_5.json \
//	    -max BenchmarkLocalNullInvoke=20 -max BenchmarkGIOPWriteMessage=0
//
// Bench output is read from stdin (or a file named by -in). Every
// metric the testing package prints — ns/op, B/op, allocs/op, and any
// b.ReportMetric extras such as E1's us/null-call-collocated or E1b's
// calls/s — lands in the JSON verbatim. Each -max NAME=N flag caps
// NAME's allocs/op at N; each -min NAME:METRIC=V flag floors any
// reported metric (the throughput-regression gate); each -minratio
// NAMEA,NAMEB:METRIC=V flag floors the ratio metric(A)/metric(B) (the
// multi-core scaling gate). A benchmark over budget or under floor
// fails the run with exit status 1, which is what makes the gate a
// gate.
//
// A benchmark run at several GOMAXPROCS values (`go test -cpu 1,2,4`)
// contributes one entry per variant, named "<base>/cpu=<N>"; a
// benchmark run at a single value keeps its bare name regardless of
// what that value was, so existing BENCH_*.json budgets are unaffected
// by the runner's core count.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one benchmark result line: name, iteration count,
// then (value, unit) pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// procSuffix matches the -<N> suffix go test appends to names: the
// GOMAXPROCS of the run, which `go test -cpu 1,2,4` varies per variant
// (a bare name means N=1).
var procSuffix = regexp.MustCompile(`-\d+$`)

// splitProcSuffix splits a printed benchmark name into its base name and
// processor count.
func splitProcSuffix(name string) (string, int) {
	s := procSuffix.FindString(name)
	if s == "" {
		return name, 1
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 1 {
		return name, 1
	}
	return name[:len(name)-len(s)], n
}

type budget struct {
	name   string
	metric string
	limit  float64
	isMin  bool
}

type budgetResult struct {
	Metric string   `json:"metric"`
	Max    *float64 `json:"max,omitempty"`
	Min    *float64 `json:"min,omitempty"`
	Actual float64  `json:"actual"`
	OK     bool     `json:"ok"`
}

type report struct {
	// Benchmarks maps benchmark name to its metrics (unit -> value).
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	// Budgets records every enforced allocs/op ceiling and its outcome.
	Budgets map[string]budgetResult `json:"budgets,omitempty"`
}

// maxFlags holds ceiling budgets. NAME=N caps NAME's allocs/op (the
// original form); NAME:METRIC=V caps any reported metric — e.g.
// -max 'BenchmarkE12_Swarm/N=1000:heal-ms=15000' gates convergence
// latency the same way -min gates throughput.
type maxFlags []budget

func (m *maxFlags) String() string { return fmt.Sprint(*m) }

func (m *maxFlags) Set(s string) error {
	// Split on the LAST '=': sub-benchmark names embed '=' themselves
	// (BenchmarkConcurrentTCPThroughput/C=64).
	eq := strings.LastIndex(s, "=")
	if eq < 0 {
		return fmt.Errorf("want NAME=MAXALLOCS or NAME:METRIC=MAX, got %q", s)
	}
	name, val := s[:eq], s[eq+1:]
	metric := "allocs/op"
	if n, met, ok := strings.Cut(name, ":"); ok && met != "" {
		name, metric = n, met
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("bad budget %q: %w", val, err)
	}
	*m = append(*m, budget{name: name, metric: metric, limit: f})
	return nil
}

// minFlags holds floor budgets: NAME:METRIC=V fails the gate when the
// named benchmark reports METRIC below V. Where -max guards allocation
// regressions, -min guards throughput regressions — e.g.
// -min 'BenchmarkConcurrentTCPThroughput/C=64:calls/s=200000'.
type minFlags []budget

func (m *minFlags) String() string { return fmt.Sprint(*m) }

func (m *minFlags) Set(s string) error {
	// Last '=' splits off the value (names embed '='); first ':' before
	// it splits name from metric (metrics embed '/', e.g. calls/s).
	eq := strings.LastIndex(s, "=")
	if eq < 0 {
		return fmt.Errorf("want NAME:METRIC=MIN, got %q", s)
	}
	name, metric, ok := strings.Cut(s[:eq], ":")
	val := s[eq+1:]
	if !ok || metric == "" {
		return fmt.Errorf("want NAME:METRIC=MIN, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("bad budget %q: %w", val, err)
	}
	*m = append(*m, budget{name: name, metric: metric, limit: f, isMin: true})
	return nil
}

// parse reads `go test -bench` output into name -> (unit -> value). A
// benchmark that ran at a single GOMAXPROCS keeps its bare base name (the
// historical keying every BENCH_*.json reader expects, whatever -N the
// runner happened to print); one that ran at several — `go test -cpu
// 1,2,4` scaling sweeps — gets one entry per variant, keyed
// "<base>/cpu=<N>", so floors and ratios can target each point of the
// scaling curve.
func parse(r io.Reader) (map[string]map[string]float64, error) {
	byBase := make(map[string]map[int]map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20) // experiment tables print long lines
	for sc.Scan() {
		match := benchLine.FindStringSubmatch(sc.Text())
		if match == nil {
			continue
		}
		base, cpu := splitProcSuffix(match[1])
		fields := strings.Fields(match[3])
		variants := byBase[base]
		if variants == nil {
			variants = make(map[int]map[string]float64)
			byBase[base] = variants
		}
		metrics := variants[cpu]
		if metrics == nil {
			metrics = make(map[string]float64)
			variants[cpu] = metrics
		}
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue // not a value/unit pair (e.g. trailing notes)
			}
			metrics[fields[i+1]] = v
		}
	}
	out := make(map[string]map[string]float64)
	for base, variants := range byBase {
		if len(variants) == 1 {
			for _, metrics := range variants {
				out[base] = metrics
			}
			continue
		}
		for cpu, metrics := range variants {
			out[fmt.Sprintf("%s/cpu=%d", base, cpu)] = metrics
		}
	}
	return out, sc.Err()
}

// ratioBudget is a scaling-ratio floor: metric(a)/metric(b) must be at
// least limit. It is how the gate pins multi-core scaling — e.g. "the
// 4-core throughput variant must beat the 1-core one by 2.5×" — without
// hard-coding machine-dependent absolute numbers.
type ratioBudget struct {
	a, b   string
	metric string
	limit  float64
}

// ratioFlags parses -minratio 'NAMEA,NAMEB:METRIC=V' (a comma separates
// the two names because benchmark names embed '/', ':' separates the
// metric, and the LAST '=' splits off the value because names embed '='
// too).
type ratioFlags []ratioBudget

func (r *ratioFlags) String() string { return fmt.Sprint(*r) }

func (r *ratioFlags) Set(s string) error {
	eq := strings.LastIndex(s, "=")
	if eq < 0 {
		return fmt.Errorf("want NAMEA,NAMEB:METRIC=MIN, got %q", s)
	}
	names, metric, ok := strings.Cut(s[:eq], ":")
	a, b, ok2 := strings.Cut(names, ",")
	if !ok || !ok2 || metric == "" || a == "" || b == "" {
		return fmt.Errorf("want NAMEA,NAMEB:METRIC=MIN, got %q", s)
	}
	f, err := strconv.ParseFloat(s[eq+1:], 64)
	if err != nil {
		return fmt.Errorf("bad ratio floor %q: %w", s[eq+1:], err)
	}
	*r = append(*r, ratioBudget{a: a, b: b, metric: metric, limit: f})
	return nil
}

// applyBudgets enforces every -max/-min budget against the parsed
// benchmarks, recording outcomes in rep; it reports whether any failed.
func applyBudgets(benches map[string]map[string]float64, all []budget, rep *report) bool {
	failed := false
	for _, b := range all {
		metrics, ok := benches[b.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "corbalc-benchgate: budgeted benchmark %s missing from input\n", b.name)
			failed = true
			continue
		}
		actual, ok := metrics[b.metric]
		if !ok {
			hint := ""
			if b.metric == "allocs/op" {
				hint = " (run with -benchmem)"
			}
			fmt.Fprintf(os.Stderr, "corbalc-benchgate: %s has no %s%s\n", b.name, b.metric, hint)
			failed = true
			continue
		}
		limit := b.limit
		res := budgetResult{Metric: b.metric, Actual: actual}
		key := b.name
		if b.isMin {
			res.Min = &limit
			res.OK = actual >= limit
			// Floors can target any metric, so key the report entry by
			// metric too; allocs/op ceilings keep their bare-name key
			// for compatibility with earlier BENCH_*.json readers.
			key = b.name + ":" + b.metric
			if !res.OK {
				fmt.Fprintf(os.Stderr, "corbalc-benchgate: %s %s = %g below floor %g\n",
					b.name, b.metric, actual, limit)
				failed = true
			}
		} else {
			res.Max = &limit
			res.OK = actual <= limit
			if b.metric != "allocs/op" {
				// Metric ceilings share the floors' keying; bare-name
				// keys stay reserved for the classic allocs/op budgets.
				key = b.name + ":" + b.metric
			}
			if !res.OK {
				fmt.Fprintf(os.Stderr, "corbalc-benchgate: %s %s = %g exceeds budget %g\n",
					b.name, b.metric, actual, limit)
				failed = true
			}
		}
		rep.Budgets[key] = res
	}
	return failed
}

// applyRatios enforces every -minratio floor, recording outcomes in rep
// under "NAMEA,NAMEB:METRIC"; it reports whether any failed.
func applyRatios(benches map[string]map[string]float64, ratios []ratioBudget, rep *report) bool {
	failed := false
	for _, rb := range ratios {
		var vals [2]float64
		ok := true
		for i, name := range []string{rb.a, rb.b} {
			metrics, found := benches[name]
			if !found {
				fmt.Fprintf(os.Stderr, "corbalc-benchgate: ratio benchmark %s missing from input\n", name)
				failed, ok = true, false
				continue
			}
			v, found := metrics[rb.metric]
			if !found || (i == 1 && v == 0) {
				fmt.Fprintf(os.Stderr, "corbalc-benchgate: %s has no usable %s for ratio\n", name, rb.metric)
				failed, ok = true, false
				continue
			}
			vals[i] = v
		}
		if !ok {
			continue
		}
		limit := rb.limit
		actual := vals[0] / vals[1]
		res := budgetResult{Metric: rb.metric + " ratio", Min: &limit, Actual: actual, OK: actual >= limit}
		if !res.OK {
			fmt.Fprintf(os.Stderr, "corbalc-benchgate: %s/%s %s ratio = %.2f below floor %g\n",
				rb.a, rb.b, rb.metric, actual, limit)
			failed = true
		}
		rep.Budgets[rb.a+","+rb.b+":"+rb.metric] = res
	}
	return failed
}

func run() int {
	var (
		budgets  maxFlags
		jsonPath string
		inPath   string
	)
	var floors minFlags
	var ratios ratioFlags
	fs := flag.NewFlagSet("corbalc-benchgate", flag.ContinueOnError)
	fs.Var(&budgets, "max", "allocs/op budget as NAME=N (repeatable)")
	fs.Var(&floors, "min", "metric floor as NAME:METRIC=V (repeatable)")
	fs.Var(&ratios, "minratio", "scaling-ratio floor as NAMEA,NAMEB:METRIC=V (repeatable)")
	fs.StringVar(&jsonPath, "json", "", "write the JSON report to this file")
	fs.StringVar(&inPath, "in", "", "read bench output from this file instead of stdin")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}

	in := io.Reader(os.Stdin)
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "corbalc-benchgate:", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	// Tee the raw output through so the gate is transparent in CI logs.
	benches, err := parse(io.TeeReader(in, os.Stdout))
	if err != nil {
		fmt.Fprintln(os.Stderr, "corbalc-benchgate:", err)
		return 2
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "corbalc-benchgate: no benchmark results on input")
		return 2
	}

	rep := report{Benchmarks: benches, Budgets: make(map[string]budgetResult)}
	failed := applyBudgets(benches, append(append([]budget(nil), budgets...), floors...), &rep)
	failed = applyRatios(benches, ratios, &rep) || failed

	if jsonPath != "" {
		buf, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "corbalc-benchgate:", err)
			return 2
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "corbalc-benchgate:", err)
			return 2
		}
	}

	names := make([]string, 0, len(rep.Budgets))
	for n := range rep.Budgets {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := rep.Budgets[n]
		verdict, bound := "ok", ""
		switch {
		case r.Max != nil:
			bound = fmt.Sprintf("(max %g)", *r.Max)
			if !r.OK {
				verdict = "OVER BUDGET"
			}
		case r.Min != nil:
			bound = fmt.Sprintf("(min %g)", *r.Min)
			if !r.OK {
				verdict = "BELOW FLOOR"
			}
		}
		fmt.Fprintf(os.Stderr, "budget %-52s %s %10g %s  %s\n", n, r.Metric, r.Actual, bound, verdict)
	}
	if failed {
		return 1
	}
	return 0
}

func main() { os.Exit(run()) }
