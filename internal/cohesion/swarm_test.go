package cohesion

import (
	"fmt"
	"testing"
	"time"

	"corbalc/internal/leak"
	"corbalc/internal/race"
)

// Swarm-scale tests of the delta-gossip discovery plane: churn and
// partitions at node counts where a full-state exchange would be
// visibly quadratic. Convergence is probed with Directory.Stamp — an
// O(1) (epoch, size, membership-hash) comparison — so polling hundreds
// of agents stays cheap.

// swarmConverged reports whether every live agent agrees on a
// membership of exactly want nodes.
func swarmConverged(agents []*Agent, want int) bool {
	e0, n0, x0 := agents[0].Stamp()
	if n0 != want {
		return false
	}
	for _, ag := range agents[1:] {
		if e, n, x := ag.Stamp(); e != e0 || n != n0 || x != x0 {
			return false
		}
	}
	return true
}

// swarmTweak configures a swarm-sized protocol: paper-default fanout
// and a calm tick, so the serial join storm stays responsive while
// hundreds of already-joined agents gossip in the background. Under
// the race detector — which serialises the whole swarm through its
// shadow memory, brutally so on a single-core CI box — the tick
// stretches further, which also widens the derived per-RPC timeout.
func swarmTweak(c *Config) {
	c.GroupSize = 8
	c.UpdateInterval = 250 * time.Millisecond
	c.FailMultiple = 4
	if race.Enabled {
		c.UpdateInterval = time.Second
	}
}

// churnTweak is the churn-bandwidth configuration: paper-default fanout
// at a 50ms tick, small enough swarms that the host keeps up.
func churnTweak(c *Config) {
	c.GroupSize = 8
	c.UpdateInterval = 50 * time.Millisecond
	c.FailMultiple = 4
}

// TestSwarmChurnConvergence kills 5% of an N-node swarm and asserts
// every survivor converges on the surviving membership through the
// delta plane. At 60 and 250 nodes it also holds the §2.4.3 scalability
// claim: control bytes per surviving node per second across the heal
// window must stay flat as the swarm grows (Strong-mode flooding
// visibly does not; see E3). Those two sizes skip under the race
// detector, which distorts timing; the 500-node size is the race-job
// smoke test for the delta plane at scale. -short skips all three.
func TestSwarmChurnConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: swarm churn")
	}
	churnBps := map[int]float64{}
	for _, size := range []struct {
		n     int
		tweak func(*Config)
	}{{60, churnTweak}, {250, churnTweak}, {500, swarmTweak}} {
		t.Run(fmt.Sprintf("N=%d", size.n), func(t *testing.T) {
			if race.Enabled && size.n < 500 {
				t.Skip("race detector: churn bandwidth is measured without instrumentation")
			}
			leak.Check(t)
			churnBps[size.n] = churnSwarm(t, size.n, size.tweak)
			t.Logf("churn %.0f B/node/s", churnBps[size.n])
		})
	}
	small, big := churnBps[60], churnBps[250]
	if small > 0 && big > 3*small {
		t.Errorf("churn bandwidth grew with swarm: %.0f (N=60) -> %.0f (N=250) B/node/s", small, big)
	}
}

// churnSwarm converges an n-node swarm, kills 5% of it and waits for
// the survivors to agree on the surviving membership, returning the
// control bytes per survivor per second across that heal window.
func churnSwarm(t *testing.T, n int, tweak func(*Config)) float64 {
	tc := newCluster(t, n, tweak)
	waitFor(t, 120*time.Second, "initial swarm convergence", func() bool {
		return swarmConverged(tc.agents, n)
	})
	time.Sleep(1500 * time.Millisecond) // let post-join traffic settle

	// Kill 5%, spread across groups, sparing the root group so the
	// directory writer survives (root failover is TestMRMFailover's
	// subject; here we measure dissemination).
	dir := tc.agents[0].Directory()
	rootGroup := dir.RootGroup()
	var victims []int
	for i := 1; i < len(tc.agents) && len(victims) < n/20; i += 17 {
		if dir.GroupOf(tc.agents[i].name) == rootGroup {
			continue
		}
		victims = append(victims, i)
	}
	alive := make([]*Agent, 0, n-len(victims))
	dead := make(map[int]bool, len(victims))
	tc.net.ResetStats()
	start := time.Now()
	for _, i := range victims {
		dead[i] = true
		tc.net.SetDown(tc.agents[i].name, true)
		tc.agents[i].Stop()
	}
	for i, ag := range tc.agents {
		if !dead[i] {
			alive = append(alive, ag)
		}
	}

	waitFor(t, 120*time.Second, "post-churn convergence", func() bool {
		return swarmConverged(alive, n-len(victims))
	})
	heal := time.Since(start)
	_, bytes := tc.net.Totals()

	// The plane that healed the swarm must actually be the delta plane.
	root := tc.agents[0].Stats()
	if root.DeltasSent == 0 {
		t.Error("root disseminated no deltas")
	}
	applied := uint64(0)
	for _, ag := range alive {
		applied += ag.Stats().DeltasApplied
	}
	if applied == 0 {
		t.Error("no agent applied a delta")
	}
	return float64(bytes) / float64(len(alive)) / heal.Seconds()
}

// TestSwarmPartitionHeal splits a 60-node swarm into a majority and a
// minority partition (whole groups, via partition classes), waits for
// the root to expel the unreachable minority, heals the split, and
// asserts the expelled nodes rejoin until the swarm reconverges on full
// membership — the graceful-heal path of the anti-entropy protocol.
func TestSwarmPartitionHeal(t *testing.T) {
	leak.Check(t)
	const n = 60
	tc := newCluster(t, n, func(c *Config) {
		c.GroupSize = 4
		c.AntiEntropyTicks = 4
	})
	waitFor(t, 60*time.Second, "initial swarm convergence", func() bool {
		return swarmConverged(tc.agents, n)
	})

	// Minority: the members of the last three groups.
	dir := tc.agents[0].Directory()
	minority := make(map[string]bool)
	for g := len(dir.Groups) - 3; g < len(dir.Groups); g++ {
		for _, m := range dir.Members(g) {
			minority[m] = true
		}
	}
	if len(minority) == 0 || minority[tc.agents[0].name] {
		t.Fatalf("bad minority selection: %v", minority)
	}
	for _, ag := range tc.agents {
		class := 1
		if minority[ag.name] {
			class = 2
		}
		tc.net.SetPartitionClass(ag.name, class)
	}

	var majority []*Agent
	for _, ag := range tc.agents {
		if !minority[ag.name] {
			majority = append(majority, ag)
		}
	}
	waitFor(t, 60*time.Second, "majority expels the minority", func() bool {
		return swarmConverged(majority, n-len(minority))
	})

	// Heal. The expelled nodes' digest pings now reach the root again:
	// each discovers it is no longer a member and rejoins.
	for _, ag := range tc.agents {
		tc.net.SetPartitionClass(ag.name, 0)
	}
	waitFor(t, 60*time.Second, "swarm reconverges after heal", func() bool {
		return swarmConverged(tc.agents, n)
	})

	pulls := uint64(0)
	for _, ag := range tc.agents {
		pulls += ag.Stats().AntiEntropyPulls
	}
	if pulls == 0 {
		t.Error("heal happened without any anti-entropy pull")
	}
}

// TestSwarmGossipStats checks the observability surface of the gossip
// plane on a small swarm: the counters corbalc-admin renders must move.
func TestSwarmGossipStats(t *testing.T) {
	leak.Check(t)
	const n = 12
	tc := newCluster(t, n, nil)
	waitFor(t, 30*time.Second, "convergence", func() bool {
		return swarmConverged(tc.agents, n)
	})
	waitFor(t, 30*time.Second, "gossip traffic", func() bool {
		root := tc.agents[0].Stats()
		mrm := tc.agents[1].Stats() // second root candidate: receives updates
		return root.DeltasSent > 0 && mrm.DeltasApplied > 0 &&
			mrm.GossipBatches > 0 && mrm.GossipBytes > 0 && mrm.UpdatesRecv > 0
	})
	st := tc.agents[2].Stats()
	if st.VVSize != n {
		t.Errorf("version vector size = %d, want %d", st.VVSize, n)
	}
	if st.Epoch == 0 || st.Nodes != n {
		t.Errorf("stats snapshot: epoch %d nodes %d", st.Epoch, st.Nodes)
	}
}
