package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"corbalc"
	"corbalc/internal/cdr"
	"corbalc/internal/cohesion"
	"corbalc/internal/component"
	"corbalc/internal/deploy"
	"corbalc/internal/ior"
	"corbalc/internal/node"
	"corbalc/internal/simnet"
	"corbalc/internal/version"
	"corbalc/internal/xmldesc"
)

// E6Deployment compares fixed design-time placement (the CCM/EJB model
// the paper criticises) with CORBA-LC's run-time, load-aware placement
// on a cluster with skewed background load.
func E6Deployment() *Table {
	t := &Table{
		ID:      "E6",
		Title:   "instance placement: static round-robin vs run-time load-aware",
		Claim:   "§2.4.4: run-time deployment exploits dynamic load data that a fixed assembly cannot",
		Columns: []string{"strategy", "placed", "failed", "max node load", "stddev load"},
		Notes:   "8 nodes (4 cores each), half pre-loaded with 3.0 background CPU; 12 instances of a 0.5-CPU component",
	}
	const nodes = 8
	const instances = 12

	run := func(strategy string, place func(c *corbalc.Cluster, i int) bool) {
		c := cluster(nodes, simnet.Link{}, func(o *corbalc.Options) {
			o.UpdateInterval = 30 * time.Millisecond
		})
		defer c.Close()
		comp := benchSpec("worker", "1.0.0", "IDL:bench/Worker:1.0", func(s *component.Spec) {
			s.QoS = xmldesc.QoS{CPUMin: 0.5}
		})
		for _, p := range c.Peers {
			if _, err := p.Node.InstallComponent(comp); err != nil {
				panic(err)
			}
		}
		for i := 0; i < nodes/2; i++ {
			c.Peers[i].Node.Resources().SetBackgroundLoad(3.0)
		}
		waitQuery(c.Peers[0], node.ComponentKey("worker"), 1)
		time.Sleep(150 * time.Millisecond)

		placed, failed := 0, 0
		for i := 0; i < instances; i++ {
			if place(c, i) {
				placed++
			} else {
				failed++
			}
			// Let resource updates reflect the new reservation before
			// the next decision, as a real deployer pacing would.
			time.Sleep(45 * time.Millisecond)
		}
		var maxLoad, sum, sum2 float64
		for _, p := range c.Peers {
			r := p.Node.Report()
			l := r.LoadFraction()
			if l > maxLoad {
				maxLoad = l
			}
			sum += l
			sum2 += l * l
		}
		mean := sum / nodes
		std := math.Sqrt(sum2/nodes - mean*mean)
		t.Rows = append(t.Rows, []string{
			strategy, fmt.Sprint(placed), fmt.Sprint(failed),
			fmtF(maxLoad), fmtF(std),
		})
	}

	// Static: the assembly pinned instance i to node i%N at design time.
	run("static-fixed", func(c *corbalc.Cluster, i int) bool {
		p := c.Peers[i%nodes]
		id := component.ID{Name: "worker", Version: mustVersion("1.0.0")}
		_, err := p.Node.Instantiate(context.Background(), id, fmt.Sprintf("s%d", i))
		return err == nil
	})
	// Run-time: the deployment engine picks the node when the instance
	// is requested.
	run("runtime-adaptive", func(c *corbalc.Cluster, i int) bool {
		_, err := c.Peers[0].Engine.Place(context.Background(), "worker", "*", fmt.Sprintf("r%d", i))
		return err == nil
	})
	return t
}

// E7Migration reproduces the paper's MPEG argument: a bandwidth-bound
// decoder is faster fetched-and-run-locally than invoked across a slow
// link, once enough frames flow.
func E7Migration() *Table {
	t := &Table{
		ID:      "E7",
		Title:   "bandwidth-bound component: remote use vs fetch-and-run-local",
		Claim:   "§3.1: a component decoding a video stream works much faster installed locally",
		Columns: []string{"frames", "remote", "fetch+local", "winner"},
		Notes:   "2 MB/s link, 4ms RTT; 64 KiB/frame; ~130 KiB package fetched once",
	}
	for _, frames := range []int{1, 4, 16, 64} {
		times := make(map[string]time.Duration, 2)
		for _, mode := range []string{"remote", "fetch+local"} {
			link := simnet.Link{Latency: 2 * time.Millisecond, BandwidthBps: 2 << 20}
			c := cluster(2, link, func(o *corbalc.Options) {
				if mode == "remote" {
					o.Deploy = &deploy.Policy{FetchEnabled: false, LoadWeight: 1}
				} else {
					o.Deploy = &deploy.Policy{FetchEnabled: true, FetchBandwidthMbps: 5, LoadWeight: 1}
				}
			})
			decoder := decoderComponent()
			if _, err := c.Peers[1].Node.InstallComponent(decoder); err != nil {
				panic(err)
			}
			waitQuery(c.Peers[0], "IDL:bench/Decoder:1.0", 1)

			start := time.Now()
			ref, err := c.Peers[0].Engine.Resolve(context.Background(), xmldesc.Port{
				Kind: xmldesc.PortUses, Name: "video", RepoID: "IDL:bench/Decoder:1.0",
			})
			if err != nil {
				panic(err)
			}
			oref := c.Peers[0].Node.ORB().NewRef(ref)
			for f := 0; f < frames; f++ {
				err := oref.InvokeContext(context.Background(), "frame", nil, func(d *cdr.Decoder) error {
					_, err := d.ReadOctetSeq()
					return err
				})
				if err != nil {
					panic(err)
				}
			}
			times[mode] = time.Since(start)
			c.Close()
		}
		winner := "remote"
		if times["fetch+local"] < times["remote"] {
			winner = "fetch+local"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(frames), fmtDur(times["remote"]), fmtDur(times["fetch+local"]), winner,
		})
	}
	return t
}

// decoderComponent builds the synthetic MPEG decoder: a bandwidth-hungry
// movable component with a moderately fat binary.
func decoderComponent() *component.Component {
	s := &component.Spec{
		Name: "streamdecoder", Version: "1.0.0", Entrypoint: "bench/decoder.New",
		BinarySize: 128 << 10, Compressible: false,
	}
	s.Provide("decode", "IDL:bench/Decoder:1.0")
	s.QoS = xmldesc.QoS{CPUMin: 0.1, BandwidthMin: 20}
	c, err := s.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// E8TinyDevices verifies requirement 8 and the §2.3 subsetting story:
// placement never selects a PDA, a PDA never fetches, and a package
// subset for the PDA's platform is a fraction of the full archive.
func E8TinyDevices() *Table {
	t := &Table{
		ID:      "E8",
		Title:   "tiny devices: placement constraints and package subsetting",
		Claim:   "Req.8/§2.3: PDAs participate as peers, use components remotely, fetch only their slice",
		Columns: []string{"check", "result"},
	}

	// Placement: a mixed cluster with one PDA; 12 placements must all
	// avoid it.
	reg := benchImpls()
	net := simnet.New(simnet.Link{})
	opts := corbalc.Options{Impls: reg, UpdateInterval: 25 * time.Millisecond}
	var peers []*corbalc.Peer
	mk := func(name string, prof node.Profile) *corbalc.Peer {
		o := opts
		o.Profile = prof
		p := corbalc.NewPeer(name, o)
		if err := net.Attach(name, p.Node.ORB()); err != nil {
			panic(err)
		}
		peers = append(peers, p)
		return p
	}
	server := mk("srv", node.ServerProfile())
	mk("ws1", node.WorkstationProfile())
	mk("ws2", node.WorkstationProfile())
	pda := mk("pda", node.PDAProfile())
	server.Bootstrap()
	for _, p := range peers[1:] {
		if err := p.Join(server.Contact()); err != nil {
			panic(err)
		}
	}
	defer func() {
		for _, p := range peers {
			p.Close()
		}
	}()

	comp := benchSpec("app", "1.0.0", "IDL:bench/App:1.0", nil)
	for _, p := range peers[:3] {
		if _, err := p.Node.InstallComponent(comp); err != nil {
			panic(err)
		}
	}
	waitQuery(server, node.ComponentKey("app"), 3)

	pdaPlacements := 0
	for i := 0; i < 12; i++ {
		pl, err := server.Engine.Place(context.Background(), "app", "*", fmt.Sprintf("i%d", i))
		if err != nil {
			panic(err)
		}
		if pl.Node == "pda" {
			pdaPlacements++
		}
	}
	t.Rows = append(t.Rows, []string{"placements landing on the PDA (of 12)", fmt.Sprint(pdaPlacements)})

	// A PDA refuses installation outright.
	_, err := pda.Node.Install(comp.Package().Bytes())
	t.Rows = append(t.Rows, []string{"PDA install attempt", fmt.Sprint(err != nil)})

	// Remote use from the PDA still works.
	ref, err := pda.Engine.Resolve(context.Background(), xmldesc.Port{Kind: xmldesc.PortUses, Name: "a", RepoID: "IDL:bench/App:1.0"})
	ok := err == nil
	if ok {
		ok = pda.Node.ORB().NewRef(ref).InvokeContext(context.Background(), "poke", nil, func(d *cdr.Decoder) error {
			_, err := d.ReadString()
			return err
		}) == nil
	}
	t.Rows = append(t.Rows, []string{"PDA uses the component remotely", fmt.Sprint(ok)})

	// Subsetting: a three-platform package vs the PDA slice.
	fat := &component.Spec{
		Name: "fatapp", Version: "1.0.0", Entrypoint: "bench/instance.New",
		BinarySize: 512 << 10,
		Platforms:  [][2]string{{"linux", "amd64"}, {"windows", "x86"}, {"palmos", "arm"}},
	}
	fat.Provide("svc", "IDL:bench/Fat:1.0")
	fatComp, err := fat.Build()
	if err != nil {
		panic(err)
	}
	sub, err := fatComp.Package().Subset(nil, "palmos-arm")
	if err != nil {
		panic(err)
	}
	full := fatComp.Package().Size()
	t.Rows = append(t.Rows, []string{"full package (3 platforms)", fmt.Sprintf("%d KiB", full>>10)})
	t.Rows = append(t.Rows, []string{"PDA subset (palmos-arm)", fmt.Sprintf("%d KiB (%.0f%%)",
		len(sub)>>10, 100*float64(len(sub))/float64(full))})
	return t
}

// E9Grid measures data-parallel aggregation speedup over W volunteers
// with simulated per-chunk remote CPU cost, with and without mid-run
// churn (§3.2).
func E9Grid() *Table {
	t := &Table{
		ID:      "E9",
		Title:   "grid aggregation speedup vs volunteers",
		Claim:   "§3.2/§2.1.1: splittable components harvest the whole network's capacity; churn costs time, not correctness",
		Columns: []string{"workers", "churn", "makespan", "speedup", "chunks ok"},
		Notes:   "32 chunks x 15ms simulated remote CPU each",
	}
	const chunks = 32
	const chunkMs = 15
	var baseline time.Duration
	for _, w := range []int{1, 2, 4, 8} {
		for _, churn := range []bool{false, true} {
			if churn && w < 4 {
				continue
			}
			c := cluster(w+1, simnet.Link{}, nil)
			comp := benchSpec("cruncher", "1.0.0", "IDL:bench/Cruncher:1.0", nil)
			for _, p := range c.Peers[1:] {
				if _, err := p.Node.InstallComponent(comp); err != nil {
					panic(err)
				}
			}
			master := c.Peers[0]
			waitQuery(master, "IDL:bench/Cruncher:1.0", w)
			offers, err := master.Agent.QueryAll(context.Background(), "IDL:bench/Cruncher:1.0", "*")
			if err != nil || len(offers) < w {
				panic(fmt.Sprintf("E9: %d offers, %v", len(offers), err))
			}

			start := time.Now()
			okChunks := farm(master, offers[:w], chunks, chunkMs, func(done int) {
				if churn && done == chunks/4 {
					c.Net.SetDown(offers[w-1].Node, true)
				}
			})
			el := time.Since(start)
			if w == 1 && !churn {
				baseline = el
			}
			speedup := float64(baseline) / float64(el)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(w), fmt.Sprint(churn), fmtDur(el), fmtF(speedup),
				fmt.Sprintf("%d/%d", okChunks, chunks),
			})
			c.Close()
		}
	}
	return t
}

// farm distributes chunks over workers with retry-on-failure; returns
// the number of completed chunks (always all of them, possibly after
// resubmission).
func farm(master *corbalc.Peer, offers []*node.Offer, chunks, chunkMs int, onDone func(int)) int {
	type result struct {
		ok bool
	}
	work := make(chan int, chunks*2)
	results := make(chan result, chunks*2)
	for i := 0; i < chunks; i++ {
		work <- i
	}
	for _, of := range offers {
		go func(of *node.Offer) {
			acc := master.Node.ORB().NewRef(of.Acceptor)
			var port *ior.IOR
			err := acc.InvokeContext(context.Background(), "obtain",
				func(e *cdr.Encoder) {
					e.WriteString(of.ComponentID)
					e.WriteString(of.PortRepoID)
				},
				func(d *cdr.Decoder) error {
					var e error
					port, e = ior.Unmarshal(d)
					return e
				})
			if err != nil {
				return
			}
			ref := master.Node.ORB().NewRef(port)
			for range work {
				err := ref.InvokeContext(context.Background(), "chunk",
					func(e *cdr.Encoder) { e.WriteLong(int32(chunkMs)) },
					func(d *cdr.Decoder) error { _, e := d.ReadLong(); return e })
				results <- result{ok: err == nil}
				if err != nil {
					return
				}
			}
		}(of)
	}
	done := 0
	for done < chunks {
		r := <-results
		if !r.ok {
			work <- 0 // resubmit
			continue
		}
		done++
		if onDone != nil {
			onDone(done)
		}
	}
	close(work)
	return done
}

// E10Predictive measures update suppression under the three send
// policies for three load traces.
func E10Predictive() *Table {
	t := &Table{
		ID:      "E10",
		Title:   "update suppression: periodic vs dead-band vs predictive",
		Claim:   "§2.4.3: predictive/adaptive techniques reduce update bandwidth even further",
		Columns: []string{"trace", "policy", "updates", "bytes"},
		Notes:   "1s window, 25ms interval, epsilon 0.05; updates counted at the sender",
	}
	const window = time.Second
	traces := []struct {
		name  string
		drive func(p *corbalc.Peer, stop <-chan struct{})
	}{
		{"stable", func(p *corbalc.Peer, stop <-chan struct{}) {
			p.Node.Resources().SetBackgroundLoad(1.0)
			<-stop
		}},
		{"noisy", func(p *corbalc.Peer, stop <-chan struct{}) {
			rng := rand.New(rand.NewSource(7))
			tick := time.NewTicker(40 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					p.Node.Resources().SetBackgroundLoad(1.0 + rng.Float64()*1.2 - 0.6)
				}
			}
		}},
		{"trending", func(p *corbalc.Peer, stop <-chan struct{}) {
			start := time.Now()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					p.Node.Resources().SetBackgroundLoad(time.Since(start).Seconds() * 1.5)
				}
			}
		}},
	}
	for _, trace := range traces {
		for _, pol := range []struct {
			name   string
			policy cohesion.SendPolicy
		}{
			{"periodic", cohesion.Periodic},
			{"deadband", cohesion.DeadBand},
			{"predictive", cohesion.Predictive},
		} {
			c := cluster(2, simnet.Link{}, func(o *corbalc.Options) {
				o.UpdateInterval = 25 * time.Millisecond
				o.FailMultiple = 20 // keep the keep-alive floor out of the way
				o.Policy = pol.policy
				o.GroupSize = 2
			})
			member := c.Peers[1] // non-leader member: pure update sender
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				trace.drive(member, stop)
			}()
			time.Sleep(150 * time.Millisecond) // settle the trace
			before := member.Agent.Stats()
			time.Sleep(window)
			after := member.Agent.Stats()
			close(stop)
			wg.Wait() // the trace must stop touching member before c.Close()
			t.Rows = append(t.Rows, []string{
				trace.name, pol.name,
				fmt.Sprint(after.UpdatesSent - before.UpdatesSent),
				fmt.Sprint(after.UpdateBytes - before.UpdateBytes),
			})
			c.Close()
		}
	}
	return t
}

func mustVersion(s string) version.V { return version.MustParse(s) }
