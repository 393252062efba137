package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"corbalc/internal/race"
)

// quick is the smallest scale: every experiment must still exhibit the
// claimed *shape*, which is what these tests assert.
var quick = Scale{Nodes: 1, Seconds: 0.5}

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

func TestE1InvocationShape(t *testing.T) {
	tab := E1Invocation(Scale{Nodes: 1})
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Lightweightness: a collocated null invocation stays under 100µs
	// even on tiny machines; TCP stays under 5ms.
	if us := num(t, cell(tab, 0, 3)); us > 100 {
		t.Errorf("collocated null op = %v us", us)
	}
	for _, row := range tab.Rows {
		if row[0] == "iiop/tcp" {
			if us := num(t, row[3]); us > 5000 {
				t.Errorf("tcp %s = %v us", row[1], us)
			}
		}
	}
	t.Log("\n" + tab.Render())
}

func TestE1bConcurrencyShape(t *testing.T) {
	tab := E1bConcurrency(Scale{Nodes: 1})
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The claimed shape: fan-in multiplies throughput. On one core the
	// gain comes from batching syscalls (write coalescing) and keeping
	// the wire full, so it survives GOMAXPROCS=1; the race detector
	// serialises everything, so only direction is asserted there.
	factor := 2.0
	if race.Enabled {
		factor = 1.1
	}
	c1 := num(t, cell(tab, 0, 3))
	c64 := num(t, cell(tab, 2, 3))
	if c64 < factor*c1 {
		t.Errorf("tcp C=64 = %v calls/s, want >= %v x C=1 (%v)", c64, factor, c1)
	}
	if tab.Rows[2][0] != "iiop/tcp" || tab.Rows[2][1] != "64" {
		t.Fatalf("row 2 = %v, want iiop/tcp C=64", tab.Rows[2])
	}
	if tab.Rows[3][0] != "iiop/tcp-single" {
		t.Fatalf("row 3 = %v, want iiop/tcp-single", tab.Rows[3])
	}
	t.Log("\n" + tab.Render())
}

func TestE2RegistryShape(t *testing.T) {
	tab := E2Registry(Scale{Nodes: 1})
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
	tab := E3Consistency(quick)
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
	tab := E4QueryHierarchy(quick)
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
	tab := E5Failover(quick)
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
	tab := E6Deployment(quick)
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
	tab := E7Migration(quick)
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
	tab := E8TinyDevices(quick)
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
	tab := E9Grid(quick)
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
	tab := E10Predictive(quick)
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

func TestE11FanOutShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := E11FanOut(quick)
	if len(tab.Rows) != 9 { // 3 subscriber counts × 3 policies
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		subs, pub := num(t, row[0]), num(t, row[2])
		del, drop := num(t, row[4]), num(t, row[5])
		// Every enqueued delivery is accounted: delivered or dropped.
		if del+drop != subs*pub {
			t.Errorf("%s/%s: delivered %v + dropped %v != %v×%v", row[0], row[1], del, drop, subs, pub)
		}
		// Block never drops; the fabric keeps a positive fan-out rate.
		if row[1] == "block" && drop != 0 {
			t.Errorf("block policy dropped %v deliveries", drop)
		}
		if num(t, row[3]) <= 0 {
			t.Errorf("%s/%s: events/s = %s", row[0], row[1], row[3])
		}
	}
	t.Log("\n" + tab.Render())
}

func TestE12SwarmShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if race.Enabled {
		// The race job exercises the swarm via TestSwarmChurnConvergence
		// (500 nodes); the bandwidth figures here are timing-sensitive.
		t.Skip("race detector: swarm bandwidth measured without instrumentation")
	}
	tab := E12Swarm(quick)
	if len(tab.Rows) != 2 { // 2 swarm sizes
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if heal := dur(t, row[2]); heal <= 0 || heal > 30*time.Second {
			t.Errorf("N=%s: heal time %v out of range", row[0], heal)
		}
		if num(t, row[4]) == 0 {
			t.Errorf("N=%s: no deltas disseminated", row[0])
		}
	}
	// Flatness: per-node churn bandwidth must not grow with the swarm
	// (Strong-mode flooding visibly does; see E3).
	small, big := num(t, cell(tab, 0, 3)), num(t, cell(tab, 1, 3))
	if big > 3*small {
		t.Errorf("churn bandwidth grew with swarm: %.0f (N=%s) -> %.0f (N=%s)",
			small, cell(tab, 0, 0), big, cell(tab, 1, 0))
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
	tab := A1Fanout(quick)
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
	tab := A2Replicas(quick)
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

func TestE13GatewayShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := E13Gateway(quick)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// A zero rate means a path errored mid-window (measureRate's
		// failure signal) — any positive rate is shape enough; throughput
		// is the benchmark suite's job (gw_uncached, gw_mix_open).
		for col := 1; col <= 3; col++ {
			if v := num(t, row[col]); v <= 0 {
				t.Errorf("C=%s: %s = %v", row[0], tab.Columns[col], v)
			}
		}
	}
	// At high concurrency the cache-hit path must beat the uncached
	// gateway path: hits skip the IIOP round trip entirely.
	if hit := num(t, cell(tab, 2, 5)); hit < 1 {
		t.Errorf("C=64 hit-speedup-x = %v, want >= 1", hit)
	}
	t.Log("\n" + tab.Render())
}
