// Command corbalc-escapegate holds the allocation line on the invocation
// hot path.
//
// ROADMAP item 5 drove Invoke to zero steady-state allocations; the gate
// keeps it there. It runs the compiler's escape analysis
// (go build -gcflags=-m) over the hot-path packages, normalizes the
// "escapes to heap" / "moved to heap" diagnostics into per-file message
// counts, and compares them against the checked-in baseline
// (ESCAPES.json). A value that starts escaping — a new message, or a
// higher count of an existing one — fails the build with the exact
// diagnostic, so the regression is caught at `make check`, not in a
// benchmark three PRs later.
//
// Line and column numbers are deliberately dropped from the baseline:
// unrelated edits move code around, and a gate that cries wolf on every
// reflow would be deleted within a month. The (file, message) pair plus
// count survives reformatting and still pins every distinct escape.
//
// Usage:
//
//	corbalc-escapegate [-baseline ESCAPES.json] [-update] [-summary file] [packages...]
//
// With -update the current escapes are written as the new baseline
// (required when intentionally adding an escape, or after an
// optimization removes one — the gate also fails on unrecorded
// improvements going stale silently is how baselines rot). With
// -summary, a markdown report is appended to the named file (CI passes
// $GITHUB_STEP_SUMMARY).
//
// Escape analysis results differ across compiler versions, so the
// baseline records the Go version it was generated with. On a mismatch
// the gate warns and exits 0 rather than failing developers who merely
// upgraded: regenerate with -update on the CI version to re-arm it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// defaultPackages are the invocation hot path — marshalling, framing,
// transport, the ORB core, and the buffer pool underneath them all —
// and the event fabric's publish path.
var defaultPackages = []string{
	"./internal/cdr",
	"./internal/giop",
	"./internal/iiop",
	"./internal/orb",
	"./internal/bufpool",
	"./internal/events",
}

// baseline is the checked-in escape inventory.
type baseline struct {
	// Go is the toolchain version the escapes were recorded with.
	Go string `json:"go"`
	// Packages are the patterns the gate ran over.
	Packages []string `json:"packages"`
	// Escapes maps file -> diagnostic message -> occurrence count.
	Escapes map[string]map[string]int `json:"escapes"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", "ESCAPES.json", "baseline file to compare against (or write with -update)")
		update       = flag.Bool("update", false, "rewrite the baseline from the current escape analysis")
		summaryPath  = flag.String("summary", "", "append a markdown report to this file (e.g. $GITHUB_STEP_SUMMARY)")
	)
	flag.Parse()
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = defaultPackages
	}

	out, err := runEscapeAnalysis(pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "escapegate: build failed:\n%s", out)
		os.Exit(1)
	}
	current := parseEscapes(out)

	if *update {
		b := baseline{Go: runtime.Version(), Packages: pkgs, Escapes: current}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "escapegate: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "escapegate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("escapegate: wrote %s (%d escapes across %d files, %s)\n",
			*baselinePath, total(current), len(current), runtime.Version())
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "escapegate: no baseline: %v (run with -update to create one)\n", err)
		os.Exit(1)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "escapegate: bad baseline %s: %v\n", *baselinePath, err)
		os.Exit(1)
	}
	if base.Go != runtime.Version() {
		fmt.Fprintf(os.Stderr,
			"escapegate: baseline was recorded with %s but this toolchain is %s; escape analysis is version-specific, skipping the gate (regenerate with -update on the pinned version)\n",
			base.Go, runtime.Version())
		writeSummary(*summaryPath, summarize(nil, nil, current,
			fmt.Sprintf("skipped: baseline is for %s, toolchain is %s", base.Go, runtime.Version())))
		return
	}

	regressions, improvements := compare(base.Escapes, current)
	writeSummary(*summaryPath, summarize(regressions, improvements, current, ""))

	for _, line := range improvements {
		fmt.Printf("escapegate: improved: %s\n", line)
	}
	if len(improvements) > 0 && len(regressions) == 0 {
		fmt.Printf("escapegate: %d escape(s) eliminated — lock it in with `go run ./cmd/corbalc-escapegate -update`\n", len(improvements))
	}
	if len(regressions) > 0 {
		for _, line := range regressions {
			fmt.Fprintf(os.Stderr, "escapegate: NEW ESCAPE: %s\n", line)
		}
		fmt.Fprintf(os.Stderr,
			"escapegate: %d new heap escape(s) on the hot path; keep the value on the stack, or if the escape is intended, record it with `go run ./cmd/corbalc-escapegate -update` and justify it in the PR\n",
			len(regressions))
		os.Exit(1)
	}
	fmt.Printf("escapegate: ok (%d baselined escapes across %d files, %s)\n",
		total(current), len(current), base.Go)
}

// runEscapeAnalysis builds pkgs with -gcflags=-m and returns the
// combined diagnostic output. The compiler replays diagnostics from the
// build cache, so repeat runs are cheap and reproducible.
func runEscapeAnalysis(pkgs []string) (string, error) {
	args := append([]string{"build", "-gcflags=-m"}, pkgs...)
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

var diagRE = regexp.MustCompile(`^([^\s:]+\.go):\d+:\d+: (.*)$`)

// parseEscapes extracts heap-escape diagnostics from -gcflags=-m output
// as file -> message -> count. Only module-relative files count: stdlib
// diagnostics arrive with absolute paths and <autogenerated> frames
// carry no actionable position. Inlining chatter and "does not escape"
// confirmations are dropped.
func parseEscapes(out string) map[string]map[string]int {
	escapes := map[string]map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		m := diagRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file, msg := m[1], m[2]
		if strings.HasPrefix(file, "/") || strings.HasPrefix(file, "<") {
			continue
		}
		if !strings.Contains(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue
		}
		if escapes[file] == nil {
			escapes[file] = map[string]int{}
		}
		escapes[file][msg]++
	}
	return escapes
}

// compare returns the regressions (messages new to a file, or counts
// above baseline) and improvements (messages gone, or counts below
// baseline), both sorted.
func compare(base, current map[string]map[string]int) (regressions, improvements []string) {
	for _, file := range sortedKeys(current) {
		for _, msg := range sortedKeys(current[file]) {
			cur, was := current[file][msg], base[file][msg]
			if cur > was {
				regressions = append(regressions, fmt.Sprintf("%s: %s (%d, baseline %d)", file, msg, cur, was))
			}
		}
	}
	for _, file := range sortedKeys(base) {
		for _, msg := range sortedKeys(base[file]) {
			was, cur := base[file][msg], current[file][msg]
			if cur < was {
				improvements = append(improvements, fmt.Sprintf("%s: %s (%d, baseline %d)", file, msg, cur, was))
			}
		}
	}
	return regressions, improvements
}

// summarize renders the markdown job summary.
func summarize(regressions, improvements []string, current map[string]map[string]int, skipped string) string {
	var b strings.Builder
	b.WriteString("### Escape gate\n\n")
	switch {
	case skipped != "":
		fmt.Fprintf(&b, "⚠️ %s\n", skipped)
	case len(regressions) > 0:
		fmt.Fprintf(&b, "❌ %d new heap escape(s) on the hot path:\n\n", len(regressions))
		for _, r := range regressions {
			fmt.Fprintf(&b, "- `%s`\n", r)
		}
	case len(improvements) > 0:
		fmt.Fprintf(&b, "✅ no new escapes; %d baselined escape(s) eliminated (update ESCAPES.json):\n\n", len(improvements))
		for _, i := range improvements {
			fmt.Fprintf(&b, "- `%s`\n", i)
		}
	default:
		fmt.Fprintf(&b, "✅ no new heap escapes (%d baselined across %d files)\n", total(current), len(current))
	}
	return b.String()
}

// writeSummary appends markdown to path, best-effort (the gate's verdict
// is its exit code; a read-only summary file must not mask it).
func writeSummary(path, md string) {
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "escapegate: summary: %v\n", err)
		return
	}
	defer f.Close()
	if _, err := f.WriteString(md + "\n"); err != nil {
		fmt.Fprintf(os.Stderr, "escapegate: summary: %v\n", err)
	}
}

func total(escapes map[string]map[string]int) int {
	n := 0
	for _, msgs := range escapes {
		for _, c := range msgs {
			n += c
		}
	}
	return n
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
