package cohesion

import (
	"context"
	"fmt"
	"testing"
	"time"

	"corbalc/internal/node"
)

// Shape tests for the §2.4.3 protocol claims (EXPERIMENTS.md E3–E5) and
// the MRM design ablations (A1, A2). Each cluster size runs in its own
// subtest, so it is torn down before the next one is measured; the rows
// EXPERIMENTS.md quotes land in the -v log.

// shapeCluster builds an n-node cluster and waits until every agent
// agrees on the full membership. Its protocol has the paper-default
// fanout, a 50ms tick and a generous failure time-out, so a scheduler
// stall on a loaded host never reads as a dead node; more adjusts it
// (E5 sets its own time-out).
func shapeCluster(t *testing.T, n int, more func(*Config)) *testCluster {
	t.Helper()
	tc := newCluster(t, n, func(c *Config) {
		c.GroupSize = 8
		c.UpdateInterval = 50 * time.Millisecond
		c.FailMultiple = 10
		if more != nil {
			more(c)
		}
	})
	waitFor(t, 30*time.Second, "convergence", func() bool { return swarmConverged(tc.agents, n) })
	return tc
}

// installProvider installs on tc.nodes[i] a component whose one provided
// port is portID, and waits until querier can find it.
func (tc *testCluster) installProvider(t *testing.T, i int, name, portID string, querier *Agent) {
	t.Helper()
	s := adderSpec(name, "1.0.0")
	s.Ports[0].RepoID = portID
	c, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.nodes[i].InstallComponent(c); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "offers for "+portID, func() bool {
		offers, err := querier.QueryAll(context.Background(), portID, "*")
		return err == nil && len(offers) > 0
	})
}

// TestE3SoftBeatsStrong: every node makes one reflective change per
// 100ms; soft consistency's control bytes per node stay flat as N grows,
// strong consistency's grow with N.
func TestE3SoftBeatsStrong(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	const window = 750 * time.Millisecond
	bps := map[Mode]map[int]float64{Soft: {}, Strong: {}}
	for _, n := range []int{8, 24, 48} {
		for mode, name := range []string{Soft: "soft", Strong: "strong"} {
			mode := Mode(mode)
			t.Run(fmt.Sprintf("N=%d/%s", n, name), func(t *testing.T) {
				tc := shapeCluster(t, n, func(c *Config) { c.Mode = mode })
				stop, done := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(done)
					tick := time.NewTicker(100 * time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-stop:
							return
						case <-tick.C:
							for _, nd := range tc.nodes {
								nd.Touch()
							}
						}
					}
				}()
				time.Sleep(300 * time.Millisecond) // settle
				tc.net.ResetStats()
				time.Sleep(window)
				msgs, bytes := tc.net.Totals()
				close(stop)
				<-done
				secs := float64(n) * window.Seconds()
				bps[mode][n] = float64(bytes) / secs
				t.Logf("%d %s: %.1f msgs/node/s, %.0f B/node/s", n, name, float64(msgs)/secs, bps[mode][n])
			})
		}
	}
	soft, strong := bps[Soft], bps[Strong]
	if soft[48]*1.5 >= strong[48] {
		t.Errorf("soft %.0f B/node/s not clearly below strong %.0f", soft[48], strong[48])
	}
	if strong[48] <= strong[8] {
		t.Errorf("strong did not grow with N: %.0f -> %.0f", strong[8], strong[48])
	}
	if soft[48] > soft[8]*3 {
		t.Errorf("soft grew too fast with N: %.0f -> %.0f", soft[8], soft[48])
	}
}

// TestE4HierarchicalCheaperThanFlat: a plain member's query costs a
// constant few messages through the MRM hierarchy, against ~2N for the
// flat broadcast, and a same-group hit never costs more than a remote one.
func TestE4HierarchicalCheaperThanFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	const queries = 30
	for _, n := range []int{16, 48, 64} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			tc := shapeCluster(t, n, nil)
			// Query from a plain member (not an MRM candidate, not the
			// root), so every hop costs real messages. The remote target
			// is in the last group, the local one in the querier's.
			querier := tc.agents[3]
			tc.installProvider(t, n-1, "needle", "IDL:bench/Needle:1.0", querier)
			tc.installProvider(t, 1, "nearby", "IDL:bench/Nearby:1.0", querier)
			time.Sleep(200 * time.Millisecond) // let summaries settle

			type query func(context.Context, string, string) ([]*node.Offer, error)
			cost := func(portID string, q query) (msgsPerQuery float64, found int) {
				tc.net.ResetStats()
				for i := 0; i < queries; i++ {
					if offers, err := q(context.Background(), portID, "*"); err == nil && len(offers) > 0 {
						found++
					}
				}
				msgs, _ := tc.net.Totals()
				return float64(msgs) / queries, found
			}
			local, localFound := cost("IDL:bench/Nearby:1.0", querier.Query)
			remote, remoteFound := cost("IDL:bench/Needle:1.0", querier.Query)
			flat, _ := cost("IDL:bench/Needle:1.0", querier.queryFlat)
			t.Logf("msgs/query: hier-local %.2f, hier-remote %.2f, flat %.2f", local, remote, flat)
			if remote*2 >= flat {
				t.Errorf("hierarchical %.1f msgs not well below flat %.1f", remote, flat)
			}
			if local > remote {
				t.Errorf("local query (%.1f msgs) dearer than remote (%.1f)", local, remote)
			}
			if flat < float64(n) { // ~2 msgs (request + reply) per other node
				t.Errorf("flat cost %.1f below node count", flat)
			}
			if localFound != queries || remoteFound != queries {
				t.Errorf("hierarchical queries missed the target: local %d, remote %d of %d", localFound, remoteFound, queries)
			}
		})
	}
}

// TestE5FailoverShape kills the querier's group MRM leader: the replica
// answers the very next query, and the root expels the corpse within 40
// update intervals of the kill.
func TestE5FailoverShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	for _, interval := range []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond} {
		t.Run(interval.String(), func(t *testing.T) {
			tc := shapeCluster(t, 8, func(c *Config) {
				c.GroupSize = 4
				c.UpdateInterval = interval
				c.FailMultiple = 3 // the quantity under test
			})
			// Group 1 is agents 4..7 and its MRM leader is agent 4.
			querier := tc.agents[5]
			tc.installProvider(t, 6, "needle", "IDL:bench/Needle:1.0", querier)

			victim := tc.agents[4]
			victim.Stop()
			tc.net.SetDown(victim.name, true)
			killAt := time.Now()

			offers, err := querier.Query(context.Background(), "IDL:bench/Needle:1.0", "*")
			firstQuery := time.Since(killAt)
			if err != nil || len(offers) != 1 {
				t.Errorf("query after MRM kill = %d offers, %v", len(offers), err)
			}
			waitFor(t, 300*interval, "root to expel the dead node", func() bool {
				return tc.agents[0].Directory().Len() == 7
			})
			expelled := time.Since(killAt)
			t.Logf("interval %v: first query after kill %v, expelled after %v", interval, firstQuery, expelled)
			if expelled > 40*interval {
				t.Errorf("expulsion took %v (> 40 intervals of %v)", expelled, interval)
			}
		})
	}
}

// TestA1FanoutShape sweeps the MRM group size at N=32: the remote-group
// query cost stays O(1) at every fanout.
func TestA1FanoutShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	const n, queries, window = 32, 20, 500 * time.Millisecond
	for _, g := range []int{2, 4, 8, 16} {
		t.Run(fmt.Sprintf("G=%d", g), func(t *testing.T) {
			tc := shapeCluster(t, n, func(c *Config) { c.GroupSize = g })
			querier := tc.agents[0]
			tc.installProvider(t, n-1, "needle", "IDL:bench/NeedleA:1.0", querier)
			time.Sleep(200 * time.Millisecond)

			tc.net.ResetStats()
			time.Sleep(window)
			msgs, _ := tc.net.Totals()

			tc.net.ResetStats()
			for i := 0; i < queries; i++ {
				offers, err := querier.Query(context.Background(), "IDL:bench/NeedleA:1.0", "*")
				if err != nil || len(offers) == 0 {
					t.Fatalf("query failed (%v, %d offers)", err, len(offers))
				}
			}
			qmsgs, _ := tc.net.Totals()
			groups := len(querier.Directory().Groups)
			perQuery := float64(qmsgs) / queries
			t.Logf("fanout %d: %d groups, %.1f msgs/node/s, %.2f query msgs",
				g, groups, float64(msgs)/n/window.Seconds(), perQuery)
			if perQuery > 12 {
				t.Errorf("query msgs = %v", perQuery)
			}
			if want := n / g; (g == 2 || g == 16) && groups != want {
				t.Errorf("groups = %d, want %d", groups, want)
			}
		})
	}
}

// TestA2ReplicasShape sweeps the MRM replication degree R at N=16, G=8:
// update traffic grows with R, and queries survive R-1 replica deaths.
func TestA2ReplicasShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	const n, window = 16, 500 * time.Millisecond
	perNode := map[int]float64{}
	for _, r := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			tc := shapeCluster(t, n, func(c *Config) { c.Replicas = r })
			// Group 0 holds agents 0..7; its first R are the MRM candidates.
			querier := tc.agents[7]
			tc.installProvider(t, 6, "needle", "IDL:bench/NeedleB:1.0", querier)

			tc.net.ResetStats()
			time.Sleep(window)
			msgs, _ := tc.net.Totals()
			perNode[r] = float64(msgs) / n / window.Seconds()

			for _, ag := range tc.agents[:r-1] {
				ag.Stop()
				tc.net.SetDown(ag.name, true)
			}
			t.Logf("R=%d: %.1f msgs/node/s", r, perNode[r])
			waitFor(t, 5*time.Second, "a query to succeed after R-1 replica kills", func() bool {
				offers, err := querier.Query(context.Background(), "IDL:bench/NeedleB:1.0", "*")
				return err == nil && len(offers) == 1
			})
		})
	}
	if perNode[3] <= perNode[1] {
		t.Errorf("traffic did not grow with replicas: R=1 %.1f vs R=3 %.1f", perNode[1], perNode[3])
	}
}
