package experiments

import (
	"context"
	"fmt"
	"time"

	"corbalc"
	"corbalc/internal/cdr"
	"corbalc/internal/cohesion"
	"corbalc/internal/node"
	"corbalc/internal/simnet"
)

// E2Registry measures the reflective node services: component install
// rate through the acceptor and query rate through the registry, as the
// repository grows (Fig. 1 behaviour under load).
func E2Registry() *Table {
	t := &Table{
		ID:      "E2",
		Title:   "node reflection: install and query throughput vs repository size",
		Claim:   "Fig.1/Req.5: components installed at run time become instantly and cheaply queryable",
		Columns: []string{"installed", "install/s", "query/s", "found"},
	}
	for _, count := range []int{10, 100, 400} {
		p := corbalc.NewPeer(fmt.Sprintf("e2-%d", count), corbalc.Options{Impls: benchImpls()})
		p.Bootstrap()
		o := p.Node.ORB()
		acc := o.NewRef(p.Node.AcceptorIOR())

		// Pre-build packages so the measurement covers install, not
		// packaging.
		pkgs := make([][]byte, count)
		for i := range pkgs {
			c := benchSpec(fmt.Sprintf("comp%04d", i), "1.0.0",
				fmt.Sprintf("IDL:bench/Svc%04d:1.0", i), nil)
			pkgs[i] = c.Package().Bytes()
		}
		start := time.Now()
		for _, pkg := range pkgs {
			err := acc.InvokeContext(context.Background(), "install",
				func(e *cdr.Encoder) { e.WriteOctetSeq(pkg) },
				func(d *cdr.Decoder) error { _, err := d.ReadString(); return err })
			if err != nil {
				panic(err)
			}
		}
		installRate := float64(count) / time.Since(start).Seconds()

		reg := o.NewRef(p.Node.RegistryIOR())
		queries := 500
		found := 0
		start = time.Now()
		for i := 0; i < queries; i++ {
			target := fmt.Sprintf("IDL:bench/Svc%04d:1.0", i%count)
			var offers []*node.Offer
			err := reg.InvokeContext(context.Background(), "query",
				func(e *cdr.Encoder) { e.WriteString(target); e.WriteString("*") },
				func(d *cdr.Decoder) error {
					var err error
					offers, err = node.UnmarshalOffers(d)
					return err
				})
			if err != nil {
				panic(err)
			}
			if len(offers) == 1 {
				found++
			}
		}
		queryRate := float64(queries) / time.Since(start).Seconds()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(count),
			fmt.Sprintf("%.0f", installRate),
			fmt.Sprintf("%.0f", queryRate),
			fmt.Sprintf("%d/%d", found, queries),
		})
		p.Close()
	}
	return t
}

// E3Consistency compares control-plane bandwidth per node under soft
// (periodic updates to MRM replicas) and strong (change-flood to all)
// consistency while every node changes state at a fixed rate.
func E3Consistency() *Table {
	t := &Table{
		ID:      "E3",
		Title:   "control bandwidth per node: soft vs strong consistency",
		Claim:   "§2.4.3: soft consistency leads to lower bandwidth utilization and better scalability",
		Columns: []string{"nodes", "mode", "msgs/node/s", "bytes/node/s"},
		Notes:   "workload: every node makes one reflective change per 100ms; soft interval 50ms, R=2",
	}
	const window = 750 * time.Millisecond
	for _, n := range []int{8, 24, 48} {
		for _, mode := range []struct {
			name string
			mut  func(*corbalc.Options)
		}{
			{"soft", nil},
			{"strong", func(o *corbalc.Options) { o.Mode = cohesion.Strong }},
		} {
			c := cluster(n, simnet.Link{}, mode.mut)
			stopCh := make(chan struct{})
			for _, p := range c.Peers {
				go func(p *corbalc.Peer) {
					tick := time.NewTicker(100 * time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-stopCh:
							return
						case <-tick.C:
							p.Node.Touch()
						}
					}
				}(p)
			}
			time.Sleep(300 * time.Millisecond) // settle
			c.Net.ResetStats()
			time.Sleep(window)
			msgs, bytes := c.Net.Totals()
			close(stopCh)
			secs := window.Seconds()
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), mode.name,
				fmt.Sprintf("%.1f", float64(msgs)/float64(n)/secs),
				fmt.Sprintf("%.0f", float64(bytes)/float64(n)/secs),
			})
			c.Close()
		}
	}
	return t
}

// E4QueryHierarchy compares the message cost of resolving a component
// via the MRM hierarchy against the flat broadcast baseline.
func E4QueryHierarchy() *Table {
	t := &Table{
		ID:      "E4",
		Title:   "distributed query cost: hierarchical MRMs vs flat broadcast",
		Claim:   "§2.4.3: the hierarchical protocol reduces network load and exploits locality",
		Columns: []string{"nodes", "strategy", "msgs/query", "us/query", "found"},
		Notes:   "querier is a plain member; hier-local: target in its group; hier-remote: target in a far group; fanout G=8",
	}
	for _, n := range []int{16, 48, 64} {
		c := cluster(n, simnet.Link{}, nil)
		// Remote target: on the last node (a different group from the
		// querying first node). Local target: on the querier's group
		// neighbour, to expose the locality shortcut.
		remote := benchSpec("needle", "1.0.0", "IDL:bench/Needle:1.0", nil)
		if _, err := c.Peers[n-1].Node.InstallComponent(remote); err != nil {
			panic(err)
		}
		local := benchSpec("nearby", "1.0.0", "IDL:bench/Nearby:1.0", nil)
		if _, err := c.Peers[1].Node.InstallComponent(local); err != nil {
			panic(err)
		}
		// Query from a plain member (not an MRM candidate, not the
		// root), so every hop of the protocol costs real messages.
		querier := c.Peers[3]
		waitQuery(querier, "IDL:bench/Needle:1.0", 1)
		waitQuery(querier, "IDL:bench/Nearby:1.0", 1)
		time.Sleep(200 * time.Millisecond) // let summaries settle

		const queries = 30
		run := func(strategy, portID string, q func(string) int) {
			c.Net.ResetStats()
			start := time.Now()
			found := 0
			for i := 0; i < queries; i++ {
				found += q(portID)
			}
			el := time.Since(start)
			msgs, _ := c.Net.Totals()
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), strategy,
				fmtF(float64(msgs) / queries),
				fmt.Sprintf("%.0f", float64(el.Microseconds())/queries),
				fmt.Sprintf("%d/%d", found, queries),
			})
		}
		hier := func(portID string) int {
			offers, err := querier.Agent.Query(context.Background(), portID, "*")
			if err != nil || len(offers) == 0 {
				return 0
			}
			return 1
		}
		run("hier-local", "IDL:bench/Nearby:1.0", hier)
		run("hier-remote", "IDL:bench/Needle:1.0", hier)
		run("flat", "IDL:bench/Needle:1.0", func(portID string) int {
			offers, err := querier.Agent.QueryFlat(context.Background(), portID, "*")
			if err != nil || len(offers) == 0 {
				return 0
			}
			return 1
		})
		c.Close()
	}
	return t
}

// E5Failover measures MRM failure handling: query availability through
// the peer replica immediately after the leader dies, and the time until
// the soft-consistency timeout expels the dead node from the directory.
func E5Failover() *Table {
	t := &Table{
		ID:      "E5",
		Title:   "MRM failover and failure detection vs keep-alive interval",
		Claim:   "§2.4.3: peer-replicated MRMs adapt to failures; timeouts catch silent nodes",
		Columns: []string{"interval", "first query after kill", "query ok", "expelled after"},
		Notes:   "G=4, R=2, FailMultiple=3; victim is the querier's group MRM leader",
	}
	for _, interval := range []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond} {
		c := cluster(8, simnet.Link{}, func(o *corbalc.Options) {
			o.GroupSize = 4
			o.UpdateInterval = interval
			o.FailMultiple = 3 // the quantity under test
		})
		// Group 1 = peers 4..7; its MRM leader is peer 4. Install the
		// target on peer 6, query from peer 5.
		target := benchSpec("needle", "1.0.0", "IDL:bench/Needle:1.0", nil)
		if _, err := c.Peers[6].Node.InstallComponent(target); err != nil {
			panic(err)
		}
		querier := c.Peers[5]
		waitQuery(querier, "IDL:bench/Needle:1.0", 1)

		victim := c.Peers[4]
		victim.Agent.Stop()
		c.Net.SetDown(victim.Node.Name(), true)
		killAt := time.Now()

		// Query availability: the very next query must succeed through
		// the replica (after timing out on the corpse).
		start := time.Now()
		offers, err := querier.Agent.Query(context.Background(), "IDL:bench/Needle:1.0", "*")
		firstQuery := time.Since(start)
		ok := err == nil && len(offers) == 1

		// Detection: the root expels the dead node once updates stop.
		expelled := time.Duration(0)
		deadline := time.Now().Add(30 * interval * 10)
		for time.Now().Before(deadline) {
			if c.Peers[0].Agent.Directory().Len() == 7 {
				expelled = time.Since(killAt)
				break
			}
			time.Sleep(interval / 4)
		}
		t.Rows = append(t.Rows, []string{
			fmtDur(interval), fmtDur(firstQuery), fmt.Sprint(ok), fmtDur(expelled),
		})
		c.Close()
	}
	return t
}
