package deploy_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"corbalc"
	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/deploy"
	"corbalc/internal/node"
	"corbalc/internal/simnet"
	"corbalc/internal/xmldesc"
)

// TestE6RuntimeBeatsStatic (§2.4.4): on 8 nodes, half pre-loaded with
// 3.0 cores of background work, 12 instances of a 0.5-CPU component are
// deployed. Run-time, load-aware placement spreads the load more evenly
// than the design-time round-robin assembly, and never fails more often.
func TestE6RuntimeBeatsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	const nodes, instances = 8, 12
	failed, std := map[string]float64{}, map[string]float64{}
	for _, strategy := range []string{"static-fixed", "runtime-adaptive"} {
		t.Run(strategy, func(t *testing.T) {
			c := newCluster(t, nodes, func(o *corbalc.Options) { o.UpdateInterval = 30 * time.Millisecond })
			spec := pingSpec("worker", 0)
			spec.QoS.CPUMin = 0.5
			var id component.ID
			for _, p := range c.Peers {
				id = install(t, p, spec)
			}
			for _, p := range c.Peers[:nodes/2] {
				p.Node.Resources().SetBackgroundLoad(3.0)
			}
			waitOffers(t, c.Peers[0], node.ComponentKey("worker"))
			time.Sleep(150 * time.Millisecond)

			for i := 0; i < instances; i++ {
				var err error
				if strategy == "static-fixed" { // the assembly pinned instance i to node i%N
					_, err = c.Peers[i%nodes].Node.Instantiate(context.Background(), id, fmt.Sprintf("s%d", i))
				} else { // the deployment engine picks the node when the instance is asked for
					_, err = c.Peers[0].Engine.Place(context.Background(), "worker", "*", fmt.Sprintf("r%d", i))
				}
				if err != nil {
					failed[strategy]++
				}
				// Let resource updates reflect the new reservation before
				// the next decision, as a real deployer's pacing would.
				time.Sleep(45 * time.Millisecond)
			}
			var maxLoad, sum, sum2 float64
			for _, p := range c.Peers {
				r := p.Node.Report()
				l := r.LoadFraction()
				maxLoad = math.Max(maxLoad, l)
				sum += l
				sum2 += l * l
			}
			mean := sum / nodes
			std[strategy] = math.Sqrt(sum2/nodes - mean*mean)
			t.Logf("failed %v of %d, max node load %.2f, stddev load %.2f", failed[strategy], instances, maxLoad, std[strategy])
		})
	}
	if failed["runtime-adaptive"] > failed["static-fixed"] {
		t.Errorf("runtime placement failed more often (%v) than static (%v)", failed["runtime-adaptive"], failed["static-fixed"])
	}
	if std["runtime-adaptive"] >= std["static-fixed"] {
		t.Errorf("runtime load stddev %.2f not below static %.2f", std["runtime-adaptive"], std["static-fixed"])
	}
}

// TestE7CrossoverToLocal (§3.1, the MPEG decoder): across a 2 MB/s, 4ms
// RTT link, a decoder returning 64 KiB per frame is used remotely or
// fetched (a ~130 KiB package) and run locally. Once enough frames flow,
// fetching wins by a wide margin.
func TestE7CrossoverToLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	took := map[bool]time.Duration{} // by fetch, of the last frame count run
	for _, frames := range []int{1, 4, 16, 64} {
		for _, fetch := range []bool{false, true} {
			t.Run(fmt.Sprintf("frames=%d/fetch=%v", frames, fetch), func(t *testing.T) {
				c := newCluster(t, 2, func(o *corbalc.Options) {
					o.Deploy = &deploy.Policy{FetchEnabled: fetch, FetchBandwidthMbps: 5, LoadWeight: 1}
				})
				link := simnet.Link{Latency: 2 * time.Millisecond, BandwidthBps: 2 << 20}
				c.Net.SetLink("peer0", "peer1", link)
				c.Net.SetLink("peer1", "peer0", link)
				spec := pingSpec("streamdecoder", 20)
				spec.BinarySize = 128 << 10
				install(t, c.Peers[1], spec)
				waitOffers(t, c.Peers[0], "IDL:test/Ping:1.0")

				start := time.Now()
				ref, err := c.Peers[0].Engine.Resolve(context.Background(), xmldesc.Port{
					Kind: xmldesc.PortUses, Name: "video", RepoID: "IDL:test/Ping:1.0",
				})
				if err != nil {
					t.Fatal(err)
				}
				oref := c.Peers[0].Node.ORB().NewRef(ref)
				for f := 0; f < frames; f++ {
					err := oref.InvokeContext(context.Background(), "frame", nil, func(d *cdr.Decoder) error {
						_, err := d.ReadOctetSeq()
						return err
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				took[fetch] = time.Since(start)
				t.Logf("%d frames, fetch %v: %v", frames, fetch, took[fetch])
			})
		}
	}
	if local, remote := took[true], took[false]; local*2 >= remote {
		t.Errorf("fetch+local %v not well below remote %v at 64 frames", local, remote)
	}
}
