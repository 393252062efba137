package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"text/tabwriter"
)

// resultSet is a result file: every run of one invocation of the set.
type resultSet struct {
	Runs []record `json:"runs"`
}

// runSet runs every workload reps times, each in a fresh child process
// so that no pool warmth, GC pacing or heap carries from one run into
// the next, and writes the records to <out>/set.json.
func runSet(seed int64, seconds int, trace bool, reps int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var set resultSet
	var failed []string
	for _, wl := range workloads {
		for r := 0; r < reps; r++ {
			args := []string{"-workload", wl.name, "-seed", fmt.Sprint(seed + int64(r)), "-seconds", fmt.Sprint(seconds), "-out", out}
			if trace {
				args = append(args, "-trace", "1")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			rec, perr := parseRecord(stdout)
			if perr != nil {
				return fmt.Errorf("%s: %w (child: %v)", wl.name, perr, err)
			}
			if err != nil || !rec.Correct {
				failed = append(failed, wl.name)
			}
			set.Runs = append(set.Runs, *rec)
			printRecord(os.Stdout, rec)
		}
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(out, "set.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if len(failed) > 0 {
		return fmt.Errorf("failed checks on %v", failed)
	}
	return nil
}

// parseRecord finds the "# record" line of a child's output.
func parseRecord(stdout []byte) (*record, error) {
	for _, line := range bytes.Split(stdout, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("# record ")); ok {
			var rec record
			if err := json.Unmarshal(rest, &rec); err != nil {
				return nil, fmt.Errorf("bad record line: %w", err)
			}
			return &rec, nil
		}
	}
	return nil, errors.New("child printed no record")
}

func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s seed %d: attempted %d failed %d\n", rec.Workload, rec.Seed, rec.Attempted, rec.Failed)
	decls := endToEnd
	if rec.Trace {
		decls = perLayer
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range decls {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, rec.Metrics[d.Name].Value, d.Unit)
	}
	_ = tw.Flush() // writes to w fail only if w does
}

func loadSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// values collects one (workload, metric) pair's values over a set's
// untraced runs.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict is one (metric, workload) comparison.
type verdict struct {
	worse  float64 // relative change of the median in the metric's bad direction
	spread float64 // the wider of the two sets' quartile spreads
	state  string  // "ok", "REGRESSION", "unresolved" or "-" (not in both files)
}

func compareMetric(d metricDecl, a, b []float64) verdict {
	if len(a) == 0 || len(b) == 0 || median(a) == 0 {
		return verdict{state: "-"}
	}
	v := verdict{worse: (median(b) - median(a)) / median(a), spread: max(quartileSpread(a), quartileSpread(b))}
	if d.Better == "higher" {
		v.worse = -v.worse
	}
	switch {
	case d.Name != "setup_s" && v.spread > d.Bound:
		v.state = "unresolved" // the runs of one side disagree by more than the bound
	case v.worse > d.Bound:
		v.state = "REGRESSION"
	default:
		v.state = "ok"
	}
	return v
}

// compareFiles prints, one row per workload, how far each end-to-end
// metric's median moved from file a to file b against its bound. It
// fails when any pair regressed or could not be resolved. Which side
// ran first is the caller's business: alternate it.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "workload")
	for _, d := range endToEnd {
		fmt.Fprintf(tw, "\t%s (±%.0f%%)", d.Name, 100*d.Bound)
	}
	fmt.Fprintln(tw)
	bad := 0
	for _, wl := range workloads {
		fmt.Fprint(tw, wl.name)
		for _, d := range endToEnd {
			v := compareMetric(d, a.values(wl.name, d.Name), b.values(wl.name, d.Name))
			switch v.state {
			case "-":
				fmt.Fprint(tw, "\t-")
			case "ok":
				fmt.Fprintf(tw, "\t%+.1f%%", 100*v.worse)
			default:
				bad++
				fmt.Fprintf(tw, "\t%+.1f%% %s (spread %.1f%%)", 100*v.worse, v.state, 100*v.spread)
			}
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "positive = worse; the spread is the wider quartile distance of the two sides as a share of the median")
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed or are unresolved", bad)
	}
	return nil
}
