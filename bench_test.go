// Benchmark harness: one testing.B entry per experiment in DESIGN.md §4
// (E1–E10). Each heavyweight experiment runs once per benchmark
// iteration at quick scale and reports its headline metrics via
// b.ReportMetric; the rendered tables land in the -v output. Micro
// benchmarks for the hot paths live next to their packages (cdr, giop,
// orb, iiop, events, cpkg, simnet); `go test -bench=. ./...` runs
// everything, and cmd/corbalc-bench re-runs the experiments standalone
// with configurable scale.
package corbalc_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"corbalc/internal/experiments"
)

var benchScale = experiments.Scale{Nodes: 1, Seconds: 0.5}

func parseCell(s string) (float64, bool) {
	f := strings.Fields(strings.TrimSuffix(s, "%"))
	if len(f) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimRight(f[0], "xs"), 64)
	return v, err == nil
}

func logTable(b *testing.B, t *experiments.Table) {
	b.Helper()
	b.Log("\n" + t.Render())
}

func BenchmarkE1_Invocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E1Invocation(benchScale)
		if i == b.N-1 {
			logTable(b, t)
			// Row 0: collocated null_op µs/call.
			if v, ok := parseCell(t.Rows[0][3]); ok {
				b.ReportMetric(v, "us/null-call-collocated")
			}
			// Row 6: iiop/tcp null_op µs/call.
			if v, ok := parseCell(t.Rows[6][3]); ok {
				b.ReportMetric(v, "us/null-call-tcp")
			}
		}
	}
}

func BenchmarkE1b_Concurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E1bConcurrency(benchScale)
		if i == b.N-1 {
			logTable(b, t)
			// Row 2: iiop/tcp C=64 calls/s; row 3: single-connection.
			if v, ok := parseCell(t.Rows[2][3]); ok {
				b.ReportMetric(v, "calls/s-tcp-c64")
			}
			if v, ok := parseCell(t.Rows[3][3]); ok {
				b.ReportMetric(v, "calls/s-tcp-c64-single")
			}
		}
	}
}

func BenchmarkE2_Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E2Registry(benchScale)
		if i == b.N-1 {
			logTable(b, t)
			last := t.Rows[len(t.Rows)-1]
			if v, ok := parseCell(last[2]); ok {
				b.ReportMetric(v, "queries/s-at-max-repo")
			}
		}
	}
}

func BenchmarkE3_SoftVsStrongConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E3Consistency(benchScale)
		if i == b.N-1 {
			logTable(b, t)
			n := len(t.Rows)
			soft, _ := parseCell(t.Rows[n-2][3])
			strong, _ := parseCell(t.Rows[n-1][3])
			b.ReportMetric(soft, "softB/node/s")
			b.ReportMetric(strong, "strongB/node/s")
		}
	}
}

func BenchmarkE4_HierarchicalVsFlatQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E4QueryHierarchy(benchScale)
		if i == b.N-1 {
			logTable(b, t)
			n := len(t.Rows)
			hier, _ := parseCell(t.Rows[n-2][2])
			flat, _ := parseCell(t.Rows[n-1][2])
			b.ReportMetric(hier, "msgs/query-hier")
			b.ReportMetric(flat, "msgs/query-flat")
		}
	}
}

func BenchmarkE5_MRMFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E5Failover(benchScale)
		if i == b.N-1 {
			logTable(b, t)
		}
	}
}

func BenchmarkE6_RuntimeVsStaticDeployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E6Deployment(benchScale)
		if i == b.N-1 {
			logTable(b, t)
			static, _ := parseCell(t.Rows[0][4])
			runtime, _ := parseCell(t.Rows[1][4])
			b.ReportMetric(static, "loadstddev-static")
			b.ReportMetric(runtime, "loadstddev-runtime")
		}
	}
}

func BenchmarkE7_FetchVsRemote(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E7Migration(benchScale)
		if i == b.N-1 {
			logTable(b, t)
		}
	}
}

func BenchmarkE8_TinyDevices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E8TinyDevices(benchScale)
		if i == b.N-1 {
			logTable(b, t)
		}
	}
}

func BenchmarkE9_GridSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E9Grid(benchScale)
		if i == b.N-1 {
			logTable(b, t)
			for _, row := range t.Rows {
				if row[0] == "8" && row[1] == "false" {
					if v, ok := parseCell(row[3]); ok {
						b.ReportMetric(v, "speedup-8workers")
					}
				}
			}
		}
	}
}

func BenchmarkE10_PredictiveUpdates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E10Predictive(benchScale)
		if i == b.N-1 {
			logTable(b, t)
		}
	}
}

func BenchmarkE11_EventFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E11FanOut(benchScale)
		if i == b.N-1 {
			logTable(b, t)
			for _, row := range t.Rows {
				if row[0] == "10000" && row[1] == "block" {
					if v, ok := parseCell(row[3]); ok {
						b.ReportMetric(v, "events/s-10k-subs")
					}
				}
			}
		}
	}
}

// BenchmarkE12_Swarm measures the delta-gossip discovery plane on the
// churn workload (converge, kill 5%, heal). The N=1000 sub-benchmark is
// the BENCH_7.json acceptance row — heal time and per-node churn
// bandwidth are ceiling-gated; it is -short-guarded because a
// thousand-node swarm is a measurement run, not a compile check.
func BenchmarkE12_Swarm(b *testing.B) {
	for _, n := range []int{60, 1000} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			if n > 100 && testing.Short() {
				b.Skip("short mode: thousand-node swarm")
			}
			for i := 0; i < b.N; i++ {
				r := experiments.RunSwarm(n, 2*time.Second)
				if i == b.N-1 {
					b.Logf("%+v", r)
					b.ReportMetric(float64(r.HealTime.Milliseconds()), "heal-ms")
					b.ReportMetric(r.ChurnBps, "B/node/s")
				}
			}
		})
	}
}

func BenchmarkA1_FanoutAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.A1Fanout(benchScale)
		if i == b.N-1 {
			logTable(b, t)
		}
	}
}

func BenchmarkA2_ReplicaAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.A2Replicas(benchScale)
		if i == b.N-1 {
			logTable(b, t)
		}
	}
}

func BenchmarkE13_Gateway(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E13Gateway(benchScale)
		if i == b.N-1 {
			logTable(b, t)
			for _, row := range t.Rows {
				if row[0] == "64" {
					if v, ok := parseCell(row[2]); ok {
						b.ReportMetric(v, "gw-rps-C64")
					}
					if v, ok := parseCell(row[3]); ok {
						b.ReportMetric(v, "cached-rps-C64")
					}
				}
			}
		}
	}
}
