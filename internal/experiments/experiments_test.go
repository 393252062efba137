package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func cell(t *Table, row, col int) string { return t.Rows[row][col] }

func num(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.Fields(s)[0], 64)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return v
}

func dur(t *testing.T, s string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(strings.ReplaceAll(s, "µ", "u"))
	if err != nil {
		t.Fatalf("not a duration: %q", s)
	}
	return d
}

func TestE2RegistryShape(t *testing.T) {
	tab := E2Registry()
	for _, row := range tab.Rows {
		if num(t, row[1]) <= 0 || num(t, row[2]) <= 0 {
			t.Errorf("non-positive rate in %v", row)
		}
		parts := strings.Split(row[3], "/")
		if parts[0] != parts[1] {
			t.Errorf("not all queries found a match: %v", row)
		}
	}
	t.Log("\n" + tab.Render())
}

func TestE3SoftBeatsStrong(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := E3Consistency()
	// Rows alternate soft/strong per N; at the largest N soft must use
	// (much) less bandwidth per node.
	last := len(tab.Rows)
	soft := num(t, cell(tab, last-2, 3))
	strong := num(t, cell(tab, last-1, 3))
	if soft*1.5 >= strong {
		t.Errorf("soft %.0f B/node/s not clearly below strong %.0f", soft, strong)
	}
	// Strong-mode bandwidth grows with N; soft stays roughly flat.
	softSmall := num(t, cell(tab, 0, 3))
	strongSmall := num(t, cell(tab, 1, 3))
	if strong <= strongSmall {
		t.Errorf("strong did not grow with N: %.0f -> %.0f", strongSmall, strong)
	}
	if soft > softSmall*3 {
		t.Errorf("soft grew too fast with N: %.0f -> %.0f", softSmall, soft)
	}
	t.Log("\n" + tab.Render())
}

func TestE4HierarchicalCheaperThanFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := E4QueryHierarchy()
	for i := 0; i+2 < len(tab.Rows); i += 3 {
		local := num(t, cell(tab, i, 2))
		remote := num(t, cell(tab, i+1, 2))
		flat := num(t, cell(tab, i+2, 2))
		n := num(t, cell(tab, i, 0))
		if remote*2 >= flat {
			t.Errorf("N=%v: hierarchical %.1f msgs not well below flat %.1f", n, remote, flat)
		}
		// Locality: a same-group hit costs no more than the remote path.
		if local > remote {
			t.Errorf("N=%v: local query (%.1f msgs) dearer than remote (%.1f)", n, local, remote)
		}
		// Flat cost ~= 2 msgs (req+reply) per other node.
		if flat < n {
			t.Errorf("N=%v: flat cost %.1f below node count", n, flat)
		}
		for _, row := range []int{i, i + 1} {
			parts := strings.Split(cell(tab, row, 4), "/")
			if parts[0] != parts[1] {
				t.Errorf("hierarchical queries missed the target: %v", tab.Rows[row])
			}
		}
	}
	t.Log("\n" + tab.Render())
}

func TestE5FailoverShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := E5Failover()
	for _, row := range tab.Rows {
		if row[2] != "true" {
			t.Errorf("query after MRM kill failed: %v", row)
		}
		expelled := dur(t, row[3])
		interval := dur(t, row[0])
		if expelled <= 0 {
			t.Errorf("dead node never expelled: %v", row)
		}
		if expelled > 40*interval {
			t.Errorf("expulsion took %v (> 40 intervals of %v)", expelled, interval)
		}
	}
	t.Log("\n" + tab.Render())
}

func TestE6RuntimeBeatsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := E6Deployment()
	staticFailed := num(t, cell(tab, 0, 2))
	runtimeFailed := num(t, cell(tab, 1, 2))
	if runtimeFailed > staticFailed {
		t.Errorf("runtime placement failed more often (%v) than static (%v)", runtimeFailed, staticFailed)
	}
	staticStd := num(t, cell(tab, 0, 4))
	runtimeStd := num(t, cell(tab, 1, 4))
	if runtimeStd >= staticStd {
		t.Errorf("runtime load stddev %.2f not below static %.2f", runtimeStd, staticStd)
	}
	t.Log("\n" + tab.Render())
}

func TestE7CrossoverToLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := E7Migration()
	// With one frame, fetching cannot pay off... the last row (many
	// frames) must favour fetch+local, and by a wide margin.
	last := tab.Rows[len(tab.Rows)-1]
	if last[3] != "fetch+local" {
		t.Errorf("many-frames winner = %s", last[3])
	}
	remote := dur(t, last[1])
	local := dur(t, last[2])
	if local*2 >= remote {
		t.Errorf("fetch+local %v not well below remote %v at high frame counts", local, remote)
	}
	t.Log("\n" + tab.Render())
}

func TestE8TinyDeviceInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := E8TinyDevices()
	checks := map[string]string{}
	for _, row := range tab.Rows {
		checks[row[0]] = row[1]
	}
	if checks["placements landing on the PDA (of 12)"] != "0" {
		t.Errorf("PDA received placements: %v", checks)
	}
	if checks["PDA install attempt"] != "true" { // true = rejected
		t.Errorf("PDA accepted an install")
	}
	if checks["PDA uses the component remotely"] != "true" {
		t.Errorf("PDA remote use failed")
	}
	t.Log("\n" + tab.Render())
}

func TestE9GridSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := E9Grid()
	// Find the 8-worker no-churn row: speedup must be > 3x.
	for _, row := range tab.Rows {
		if row[0] == "8" && row[1] == "false" {
			if sp := num(t, row[3]); sp < 3 {
				t.Errorf("8-worker speedup = %.2f", sp)
			}
		}
		parts := strings.Split(row[4], "/")
		if parts[0] != parts[1] {
			t.Errorf("lost chunks: %v", row)
		}
	}
	t.Log("\n" + tab.Render())
}

func TestE10PredictiveSuppression(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := E10Predictive()
	byKey := map[string]float64{}
	for _, row := range tab.Rows {
		byKey[row[0]+"/"+row[1]] = num(t, row[2])
	}
	// Stable load: both suppressing policies send far fewer updates.
	if byKey["stable/deadband"]*2 >= byKey["stable/periodic"] {
		t.Errorf("deadband %v not well below periodic %v on stable load",
			byKey["stable/deadband"], byKey["stable/periodic"])
	}
	if byKey["stable/predictive"]*2 >= byKey["stable/periodic"] {
		t.Errorf("predictive %v not well below periodic %v on stable load",
			byKey["stable/predictive"], byKey["stable/periodic"])
	}
	// Trending load: the linear predictor beats the plain dead band.
	if byKey["trending/predictive"] > byKey["trending/deadband"] {
		t.Errorf("predictive %v worse than deadband %v on trending load",
			byKey["trending/predictive"], byKey["trending/deadband"])
	}
	t.Log("\n" + tab.Render())
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "demo", Claim: "c",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   "n",
	}
	out := tab.Render()
	for _, want := range []string{"== EX: demo ==", "claim: c", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestA1FanoutShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := A1Fanout()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// Query cost stays small regardless of fanout.
		if q := num(t, row[3]); q > 12 {
			t.Errorf("fanout %s: query msgs = %v", row[0], q)
		}
	}
	// Fanout 2 yields 16 groups, fanout 16 yields 2.
	if g2 := num(t, cell(tab, 0, 1)); g2 != 16 {
		t.Errorf("fanout 2 groups = %v", g2)
	}
	if g16 := num(t, cell(tab, 3, 1)); g16 != 2 {
		t.Errorf("fanout 16 groups = %v", g16)
	}
	t.Log("\n" + tab.Render())
}

func TestA2ReplicasShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := A2Replicas()
	for _, row := range tab.Rows {
		if row[2] != "true" {
			t.Errorf("R=%s: queries failed after R-1 kills", row[0])
		}
	}
	// Update traffic grows with R.
	r1 := num(t, cell(tab, 0, 1))
	r3 := num(t, cell(tab, 2, 1))
	if r3 <= r1 {
		t.Errorf("traffic did not grow with replicas: R=1 %.1f vs R=3 %.1f", r1, r3)
	}
	t.Log("\n" + tab.Render())
}
