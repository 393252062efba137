// Command benchmark is the repository's performance yardstick: six
// workloads over the data path, the event fabric and the control plane,
// the end-to-end figures a user of each would feel, and — with -trace —
// an outside-in per-layer breakdown. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// Timeline constants shared by every workload.
const (
	warmUp   = 2 * time.Second
	sliceLen = time.Second
	// Set-up is repeated, and its median reported, until the budget is
	// spent: a cheap set-up (a millisecond of listeners and dials) needs
	// many repetitions for a steady median, a dear one (a swarm) gets
	// three. The cap keeps the sockets left in TIME_WAIT in the hundreds.
	setupMinReps = 3
	setupMaxReps = 101
	setupBudget  = 400 * time.Millisecond
	// miniSeconds is the window of the short untraced runs a traced run
	// adds so that every layer's counters are defined on every workload.
	miniSeconds = 2
	// maxFailRatio is where a run stops being a measurement.
	maxFailRatio = 0.01
)

// runConfig is one run's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  int           // measured slices
	slice    time.Duration // length of one slice: sliceLen, shorter only in tests
	warm     time.Duration
	tr       *tracer // nil unless -trace
	out      string
}

func (c runConfig) window() time.Duration { return time.Duration(c.seconds) * c.slice }

// instance is one workload brought up on its inputs.
type instance interface {
	// drive runs the workload through w — warm-up, then the measured
	// slices — and returns once the window has closed and the system is
	// quiet.
	drive(w *window) (driven, error)
	// counters adds what the layers' own public surfaces report.
	counters(m map[string]float64)
	// close runs the exit-time checks and tears everything down. failures
	// counts what those checks found beyond the per-op failures.
	close() (failures int, err error)
}

// workload is one named traffic shape.
type workload struct {
	name string
	why  string
	net  string // "loopback" or "simnet"
	// prepare generates the run's inputs from cfg.seed and returns the
	// set-up that brings the system up on them and issues the first
	// operation. Only the returned function is timed as setup_s.
	prepare func(cfg runConfig) func() (instance, error)
}

var workloads = []workload{
	{"iiop_small", "smallest native call over loopback IIOP: per-message cost (cdr, giop, coalescer, dispatch, adapter) is everything; gateway, dii, idl, events, cohesion are idle", "loopback", prepareIIOP(false)},
	{"iiop_bulk", "64 KiB echo over the same path: bytes, copies, buffer classes and fragmentation dominate, per-message cost is diluted", "loopback", prepareIIOP(true)},
	{"gw_uncached", "non-idempotent JSON POST through the gateway: every request crosses JSON, idl, dii, cdr, IIOP and back, so the translation edge does the work", "loopback", prepareGW(false)},
	{"gw_mix_open", "open loop at 2000 req/s, Zipf reads with invalidating writes and oneways: latency at a fixed offered rate, with the cache used both ways", "loopback", prepareGW(true)},
	{"events_fanout", "one publisher, 64 local subscribers and one remote over IIOP under back-pressure: the event fabric and the oneway send path, no replies", "loopback", prepareFanout},
	{"swarm_churn", "120-node swarm on zero-delay simnet healed through crash and rejoin rounds: the only load on cohesion, gossip and simnet", "simnet", prepareSwarm},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host is what a number needs beside it to mean anything later.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown", Kernel: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	return h
}

// record is one run as kept in result files: the driver's line plus the
// context it was measured in.
type record struct {
	Workload string         `json:"workload"`
	Net      string         `json:"net"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    bool           `json:"trace"`
	Host     host           `json:"host"`
	Samples  map[string]int `json:"samples"`         // sample count behind each percentile
	Rates    []float64      `json:"slice_ops_per_s"` // the slices ops_per_s is the median of
	// Raw carries the demoted figures on every run, traced or not, so
	// that sets of untraced runs can be compared on them too.
	Raw map[string]float64 `json:"raw"`
	result
}

// measured is what one pass over a workload yields before it is shaped
// into metrics.
type measured struct {
	setups    []float64 // seconds, one per set-up
	stats     sliceStats
	perOp     cost // process resources per verified operation, over the untraced slices
	heapMiB   float64
	attempted int
	failed    int
	layer     map[string]float64
}

// measure sets the workload up — repeatedly when timeSetup is set, and
// the last instance is the one driven — drives it through a window of
// cfg.seconds slices, and tears it down.
func measure(wl workload, cfg runConfig, timeSetup bool) (*measured, error) {
	setup := wl.prepare(cfg)
	m := &measured{layer: make(map[string]float64)}
	var inst instance
	for began := time.Now(); ; {
		t0 := time.Now()
		in, err := setup()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
		n := len(m.setups)
		if !timeSetup || n >= setupMaxReps || (n >= setupMinReps && time.Since(began) >= setupBudget) {
			inst = in
			break
		}
		if _, err := in.close(); err != nil {
			return nil, fmt.Errorf("%s: tearing down set-up %d: %w", wl.name, n, err)
		}
	}

	w := &window{start: time.Now().Add(cfg.warm), slices: cfg.seconds, sliceLen: cfg.slice, tr: cfg.tr}
	d, err := inst.drive(w)
	if err != nil {
		_, _ = inst.close()
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	m.stats = reduceSlices(d.recs, w.slices)
	m.perOp = costPerOp(w, d.edges, m.stats.counts)
	for _, r := range d.recs {
		m.attempted += r.attempted
		m.failed += r.failed
	}
	inst.counters(m.layer)
	for _, r := range d.recs {
		r.release()
	}
	m.heapMiB = heapLiveMiB()
	failures, cerr := inst.close()
	m.attempted += failures
	m.failed += failures
	if cerr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", cerr)
	}
	return m, nil
}

// cost is process resources per operation.
type cost struct{ mallocs, bytes, cpuNS float64 }

// perSliceOps is how many operations every slice must hold for cost per
// operation to be taken slice by slice.
const perSliceOps = 100

// costPerOp divides the process resources spent by the operations
// verified, over the untraced slices only: all of them in an untraced
// run, the even ones in a traced run. With enough operations in every
// slice it is the median of the slices' own ratios, so that one bad
// second cannot move it; otherwise (swarm_churn completes about one
// round a second) it is the ratio of the totals.
func costPerOp(w *window, edges []usage, counts []int) (per cost) {
	var mallocs, bytes, cpu []float64
	var total usage
	ops, fewest := 0, perSliceOps
	for i := 0; i < w.slices; i++ {
		if w.tracedSlice(i) {
			continue
		}
		dm, db, dc := edges[i+1].mallocs-edges[i].mallocs, edges[i+1].bytes-edges[i].bytes, edges[i+1].cpu-edges[i].cpu
		total.mallocs, total.bytes, total.cpu = total.mallocs+dm, total.bytes+db, total.cpu+dc
		ops += counts[i]
		fewest = min(fewest, counts[i])
		n := float64(max(1, counts[i]))
		mallocs, bytes, cpu = append(mallocs, float64(dm)/n), append(bytes, float64(db)/n), append(cpu, float64(dc)/n)
	}
	if fewest >= perSliceOps {
		per.mallocs, per.bytes, per.cpuNS = median(mallocs), median(bytes), median(cpu)
		return per
	}
	n := float64(max(1, ops))
	per.mallocs, per.bytes, per.cpuNS = float64(total.mallocs)/n, float64(total.bytes)/n, float64(total.cpu)/n
	return per
}

// endToEndMetrics shapes a pass into the end-to-end list.
func endToEndMetrics(m *measured) map[string]float64 {
	return map[string]float64{
		"setup_s":      median(m.setups),
		"ops_per_s":    m.stats.opsPerS,
		"p50_us":       m.stats.p50 / 1e3,
		"heap_live_mb": m.heapMiB,
	}
}

// rawMetrics shapes a pass into the figures demoted from the end-to-end
// list (raw.ctl_bytes_per_node_s comes with swarm_churn's counters).
func rawMetrics(m *measured) map[string]float64 {
	return map[string]float64{
		"tail.p99_us":            m.stats.p99 / 1e3,
		"raw.fail_ratio":         float64(m.failed) / float64(max(1, m.attempted)),
		"raw.cpu_us_per_op":      m.perOp.cpuNS / 1e3,
		"raw.allocs_per_op":      m.perOp.mallocs,
		"raw.alloc_bytes_per_op": m.perOp.bytes,
	}
}

// runOne performs one run of one workload and returns its record.
func runOne(cfg runConfig) (*record, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	m, err := measure(wl, cfg, true)
	if err != nil {
		return nil, err
	}
	if m.stats.samples == 0 {
		return nil, fmt.Errorf("%s: no verified operation completed inside the window", wl.name)
	}
	rec := &record{
		Workload: wl.name, Net: wl.net, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.tr != nil, Host: hostInfo(),
		Samples: map[string]int{"p50_us": m.stats.samples, "tail.p99_us": m.stats.p99Samples},
		Rates:   m.stats.rates,
		Raw:     rawMetrics(m),
	}
	rec.Attempted, rec.Failed = m.attempted, m.failed
	rec.Metrics = make(map[string]metric)

	if cfg.tr == nil {
		vals := endToEndMetrics(m)
		for _, d := range endToEnd {
			rec.Metrics[d.Name] = metric{vals[d.Name], d.Unit}
		}
	} else {
		layer, err := layerMetrics(wl, cfg, m)
		if err != nil {
			return nil, err
		}
		for _, d := range perLayer {
			v, ok := layer[d.Name]
			if !ok {
				return nil, fmt.Errorf("%s: per-layer metric %s was not measured", wl.name, d.Name)
			}
			rec.Metrics[d.Name] = metric{v, d.Unit}
		}
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
		if err := cfg.tr.write(filepath.Join(cfg.out, "trace.json"), wl.name); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	rec.Correct = float64(rec.Failed) <= maxFailRatio*float64(rec.Attempted)
	return rec, nil
}

// layerMetrics assembles the per-layer list of a traced run: the probes
// (cut ladder and leaf layers), the counters of a short run of every
// workload that is some layer's home, and this workload's own window.
func layerMetrics(wl workload, cfg runConfig, m *measured) (map[string]float64, error) {
	layer := make(map[string]float64)
	for _, home := range []string{"gw_mix_open", "events_fanout", "swarm_churn"} {
		if home == wl.name {
			continue
		}
		hw, _ := findWorkload(home)
		mini, err := measure(hw, runConfig{workload: home, seed: cfg.seed, seconds: miniSeconds, slice: cfg.slice, warm: cfg.warm / 4}, false)
		if err != nil {
			return nil, fmt.Errorf("mini run: %w", err)
		}
		for k, v := range mini.layer {
			layer[k] = v
		}
	}
	if err := probes(layer); err != nil {
		return nil, err
	}
	for k, v := range m.layer {
		layer[k] = v
	}
	for k, v := range rawMetrics(m) {
		layer[k] = v
	}
	var traced, untraced []float64
	for i, r := range m.stats.rates {
		if i&1 == 1 {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	layer["trace.overhead_ratio"] = 1
	if len(traced) > 0 && median(untraced) > 0 {
		layer["trace.overhead_ratio"] = median(traced) / median(untraced)
	}
	return layer, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// bareTrace lets `-trace` stand alone, as the issue writes it, next to
// the driver's `--trace <0|1>`: the flag package wants a value.
func bareTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i, a := range args {
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1")) {
			a = "-trace=1"
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload and print the driver's result line; empty runs the whole set")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", runSeconds, "measured window in seconds (whole 1 s slices)")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	reps := fs.Int("reps", 1, "set mode: runs per workload, on seeds seed, seed+1, ...")
	out := fs.String("out", "benchmark/out", "directory for trace.json and result files")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json")
	if err := fs.Parse(bareTrace(args)); err != nil {
		return err
	}
	switch {
	case *printManifest:
		b, err := manifest()
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	case *seconds < 1:
		return errors.New("-seconds must be at least 1")
	case *name == "":
		return runSet(*seed, *seconds, *trace != 0, *reps, *out)
	}

	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, slice: sliceLen, warm: warmUp, out: *out}
	if *trace != 0 {
		cfg.tr = newTracer()
	}
	rec, err := runOne(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# %s over %s, seed %d, %d s window after %v warm-up, %d callers; nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s; samples %v\n",
		rec.Workload, rec.Net, rec.Seed, rec.Seconds, warmUp, callers,
		rec.Host.NProc, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.Kernel, rec.Host.Commit, rec.Samples)
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Printf("# record %s\n", full)
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d operations failed (fail_ratio above %v)", rec.Workload, rec.Failed, rec.Attempted, maxFailRatio)
	}
	return nil
}
