package experiments

// E12: the delta-gossip swarm experiment. The paper claims the
// reflective directory scales to "hundreds or thousands" of nodes
// (§2.4.3). E12 converges a swarm, observes steady-state control
// bandwidth, then kills 5% of the nodes and measures how long the
// survivors take to agree on the surviving membership and how many
// bytes that heal cost. Bytes/node/s should stay roughly flat as the
// swarm grows.

import (
	"fmt"
	"time"

	"corbalc"
	"corbalc/internal/cohesion"
	"corbalc/internal/simnet"
)

// SwarmResult is one E12 run: a swarm of Nodes measured in steady state
// and through a 5%-churn heal.
type SwarmResult struct {
	Nodes       int
	SteadyBps   float64       // steady-state control bytes/node/s
	HealTime    time.Duration // churn until survivors reconverge
	ChurnBps    float64       // bytes/node/s across the heal window
	DeltasSent  uint64        // root's directory deltas
	PullsServed uint64        // anti-entropy pulls answered swarm-wide
}

// swarmName mirrors the name format RunSwarm hands NewCluster.
func swarmName(i int) string { return fmt.Sprintf("s%04d", i) }

// swarmStamped reports whether every listed agent carries an identical
// directory stamp over exactly want members. Stamp is O(1) per agent,
// so the poll stays cheap at thousands of nodes (Directory() would
// clone the whole map every probe).
func swarmStamped(agents []*cohesion.Agent, want int) bool {
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

func waitSwarm(agents []*cohesion.Agent, want int, timeout time.Duration, what string) {
	deadline := time.Now().Add(timeout)
	for !swarmStamped(agents, want) {
		if time.Now().After(deadline) {
			// Diagnose: size histogram plus the protocol stats of the
			// outliers (nodes whose directory size disagrees with the
			// majority) — wedged-node bugs show up as frozen counters.
			counts := map[int]int{}
			for _, ag := range agents {
				_, n, _ := ag.Stamp()
				counts[n]++
			}
			major, majorN := 0, 0
			for n, c := range counts {
				if c > majorN {
					major, majorN = n, c
				}
			}
			outliers := ""
			for i, ag := range agents {
				if _, n, _ := ag.Stamp(); n != major && len(outliers) < 2000 {
					outliers += fmt.Sprintf("\n  agent %d (size %d): %+v", i, n, ag.Stats())
				}
			}
			panic(fmt.Sprintf("experiments: E12 %s: %d nodes never agreed (sizes %v)%s", what, want, counts, outliers))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// swarmInterval picks the status tick for an N-node swarm: 50ms for
// CI-sized swarms, stretched for thousand-node runs so the aggregate
// tick rate (N/interval) stays near what one or two cores can absorb.
func swarmInterval(nodes int) time.Duration {
	if nodes > 250 {
		return 200 * time.Millisecond
	}
	return 50 * time.Millisecond
}

// RunSwarm measures one swarm size of E12: steady-state bandwidth over
// the steady window, then heal time and bandwidth after killing 5% of
// the swarm (sparing the root group, so the experiment measures
// dissemination rather than root failover).
func RunSwarm(nodes int, steady time.Duration) SwarmResult {
	c, err := corbalc.NewCluster(nodes, "s%04d", simnet.Link{}, corbalc.Options{
		UpdateInterval: swarmInterval(nodes),
		GroupSize:      8,
		FailMultiple:   4,
	})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	agents := make([]*cohesion.Agent, len(c.Peers))
	for i, p := range c.Peers {
		agents[i] = p.Agent
	}
	waitSwarm(agents, nodes, 180*time.Second, "initial convergence")

	time.Sleep(500 * time.Millisecond) // settle post-join traffic
	c.Net.ResetStats()
	time.Sleep(steady)
	_, steadyBytes := c.Net.Totals()

	// Kill 5%, spread across groups.
	dir := agents[0].Directory()
	rootGroup := dir.RootGroup()
	var victims []int
	for i := 1; i < nodes && len(victims) < nodes/20; i += 17 {
		if dir.GroupOf(swarmName(i)) == rootGroup {
			continue
		}
		victims = append(victims, i)
	}
	dead := make(map[int]bool, len(victims))
	c.Net.ResetStats()
	start := time.Now()
	for _, i := range victims {
		dead[i] = true
		c.Net.SetDown(swarmName(i), true)
		agents[i].Stop()
	}
	survivors := make([]*cohesion.Agent, 0, nodes-len(victims))
	for i, ag := range agents {
		if !dead[i] {
			survivors = append(survivors, ag)
		}
	}
	waitSwarm(survivors, nodes-len(victims), 180*time.Second, "post-churn heal")
	heal := time.Since(start)
	_, churnBytes := c.Net.Totals()

	res := SwarmResult{
		Nodes:     nodes,
		SteadyBps: float64(steadyBytes) / float64(nodes) / steady.Seconds(),
		HealTime:  heal,
		ChurnBps:  float64(churnBytes) / float64(len(survivors)) / heal.Seconds(),
	}
	res.DeltasSent = agents[0].Stats().DeltasSent
	for _, ag := range survivors {
		res.PullsServed += ag.Stats().PullsServed
	}
	return res
}

// E12Swarm runs the swarm at a CI-sized scale and at a scaled one
// (250×Scale.Nodes; Nodes 4 is the 1000-node acceptance row).
func E12Swarm(sc Scale) *Table {
	t := &Table{
		ID:    "E12",
		Title: "delta-gossip discovery at swarm scale",
		Claim: "§2.4.3: the replicated directory scales to thousands of nodes — incremental deltas keep control bandwidth per node flat as the swarm grows",
		Columns: []string{
			"nodes", "steady-B/node/s", "5%-churn heal", "churn-B/node/s", "deltas", "pulls",
		},
		Notes: "workload: converge, measure steady window, kill 5% (root group spared), measure until survivors reconverge; G=8, R=2, interval 50ms (200ms above 250 nodes)",
	}
	steady := sc.window(2 * time.Second)
	for _, n := range []int{60, sc.nodes(250)} {
		r := RunSwarm(n, steady)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.0f", r.SteadyBps),
			fmtDur(r.HealTime),
			fmt.Sprintf("%.0f", r.ChurnBps),
			fmt.Sprint(r.DeltasSent), fmt.Sprint(r.PullsServed),
		})
	}
	return t
}
