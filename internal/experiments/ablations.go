package experiments

import (
	"context"
	"fmt"
	"time"

	"corbalc"
	"corbalc/internal/simnet"
)

// Ablations probe design choices DESIGN.md calls out rather than paper
// claims: the MRM fanout (group size) and the replication degree.

// A1Fanout sweeps the MRM group size at fixed network size, measuring
// both steady-state update traffic and remote-query cost. Small groups
// mean many groups (root fan-out grows); large groups mean fat MRMs
// (per-leader ingest grows) — the sweep exposes the trade-off behind
// the default of 8.
func A1Fanout() *Table {
	t := &Table{
		ID:      "A1",
		Title:   "ablation: MRM fanout (group size) at N=32",
		Claim:   "design choice: fanout trades root load against MRM ingest; query cost stays O(1)",
		Columns: []string{"fanout", "groups", "msgs/node/s", "query msgs", "query us"},
	}
	const n = 32
	const window = 500 * time.Millisecond
	for _, g := range []int{2, 4, 8, 16} {
		c := cluster(n, simnet.Link{}, func(o *corbalc.Options) {
			o.GroupSize = g
			o.UpdateInterval = 50 * time.Millisecond
		})
		target := benchSpec("needle", "1.0.0", "IDL:bench/NeedleA:1.0", nil)
		if _, err := c.Peers[n-1].Node.InstallComponent(target); err != nil {
			panic(err)
		}
		querier := c.Peers[0]
		waitQuery(querier, "IDL:bench/NeedleA:1.0", 1)
		time.Sleep(200 * time.Millisecond)

		// Steady-state control traffic.
		c.Net.ResetStats()
		time.Sleep(window)
		msgs, _ := c.Net.Totals()
		msgsPerNode := float64(msgs) / float64(n) / window.Seconds()

		// Remote-group query cost.
		const queries = 20
		c.Net.ResetStats()
		start := time.Now()
		for i := 0; i < queries; i++ {
			offers, err := querier.Agent.Query(context.Background(), "IDL:bench/NeedleA:1.0", "*")
			if err != nil || len(offers) == 0 {
				panic(fmt.Sprintf("A1 fanout=%d: query failed (%v, %d offers)", g, err, len(offers)))
			}
		}
		el := time.Since(start)
		qmsgs, _ := c.Net.Totals()

		groups := 0
		for _, members := range querier.Agent.Directory().Groups {
			if len(members) > 0 {
				groups++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(g), fmt.Sprint(groups),
			fmt.Sprintf("%.1f", msgsPerNode),
			fmtF(float64(qmsgs) / queries),
			fmt.Sprintf("%.0f", float64(el.Microseconds())/queries),
		})
		c.Close()
	}
	return t
}

// A2Replicas sweeps the MRM replication degree R: more replicas cost
// proportionally more update traffic and buy failover headroom (R-1
// leader deaths survivable without a directory rebuild).
func A2Replicas() *Table {
	t := &Table{
		ID:      "A2",
		Title:   "ablation: MRM replication degree at N=16, G=8",
		Claim:   "design choice: update traffic grows linearly with R; queries survive R-1 replica deaths",
		Columns: []string{"replicas", "msgs/node/s", "queries ok after R-1 kills"},
	}
	const n = 16
	const window = 500 * time.Millisecond
	for _, r := range []int{1, 2, 3} {
		c := cluster(n, simnet.Link{}, func(o *corbalc.Options) {
			o.GroupSize = 8
			o.Replicas = r
			o.UpdateInterval = 50 * time.Millisecond
		})
		target := benchSpec("needle", "1.0.0", "IDL:bench/NeedleB:1.0", nil)
		// Install inside the querier's group (group 0 holds peers 0..7).
		if _, err := c.Peers[6].Node.InstallComponent(target); err != nil {
			panic(err)
		}
		querier := c.Peers[7]
		waitQuery(querier, "IDL:bench/NeedleB:1.0", 1)

		c.Net.ResetStats()
		time.Sleep(window)
		msgs, _ := c.Net.Totals()
		msgsPerNode := float64(msgs) / float64(n) / window.Seconds()

		// Kill the first R-1 group MRM candidates; with the last replica
		// standing, queries must still resolve.
		for i := 0; i < r-1; i++ {
			c.Peers[i].Agent.Stop()
			c.Net.SetDown(c.Peers[i].Node.Name(), true)
		}
		ok := false
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			offers, err := querier.Agent.Query(context.Background(), "IDL:bench/NeedleB:1.0", "*")
			if err == nil && len(offers) == 1 {
				ok = true
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r),
			fmt.Sprintf("%.1f", msgsPerNode),
			fmt.Sprint(ok),
		})
		c.Close()
	}
	return t
}
