package cohesion

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/leak"
	"corbalc/internal/node"
	"corbalc/internal/orb"
	"corbalc/internal/simnet"
)

// recorder stands in for a destination's cohesion servant and keeps the
// bodies of every gossip_batch frame it receives, frame by frame.
type recorder struct {
	mu     sync.Mutex
	frames [][]string
}

func (r *recorder) RepositoryID() string { return node.NetworkCohesion.RepoID() }

func (r *recorder) InvokeContext(_ context.Context, op string, args *cdr.Decoder, _ *cdr.Encoder) error {
	if op != "gossip_batch" {
		return orb.BadOperation()
	}
	n, err := args.ReadULong()
	if err != nil {
		return orb.Marshal()
	}
	frame := make([]string, 0, n)
	for range n {
		if _, err := args.ReadOctet(); err != nil {
			return orb.Marshal()
		}
		body, err := args.ReadOctetSeqAlias()
		if err != nil {
			return orb.Marshal()
		}
		frame = append(frame, string(body))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frames = append(r.frames, frame)
	return nil
}

// received returns the frames so far and how many messages they carry.
func (r *recorder) received() (frames [][]string, msgs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.frames {
		msgs += len(f)
	}
	return slices.Clone(r.frames), msgs
}

// outboxRig attaches a source agent "src", never started, whose
// directory names each destination; a recorder answers at every
// destination's cohesion key.
func outboxRig(t *testing.T, dests ...string) (*simnet.Network, *gossiper, map[string]*recorder) {
	t.Helper()
	tc := &testCluster{net: simnet.New(simnet.Link{})}
	nd, src := tc.newAgent(t, "src", nil)
	dir := NewDirectory()
	if _, err := dir.Assign(src.Desc(), 8); err != nil {
		t.Fatal(err)
	}
	recs := make(map[string]*recorder, len(dests))
	for _, name := range dests {
		dn, dag := tc.newAgent(t, name, nil)
		t.Cleanup(dn.Close)
		if _, err := dir.Assign(dag.Desc(), 8); err != nil {
			t.Fatal(err)
		}
		recs[name] = &recorder{}
		dn.ORB().Activate(node.NetworkCohesion.Key(), recs[name])
	}
	src.locked(func(c *core, _ time.Time) { c.enter(dir) })
	t.Cleanup(func() {
		src.Stop()
		nd.Close()
	})
	return tc.net, src.gossip, recs
}

// blockSender queues one message to dest and waits until its sender is
// in flight on the link.
func blockSender(t *testing.T, net *simnet.Network, g *gossiper, dest string) {
	t.Helper()
	g.enqueue(dest, gossipHint, []byte("prime"))
	waitFor(t, 5*time.Second, "the sender to take the link", func() bool { return net.StatsOf("src").MsgsSent > 0 })
}

// A destination behind a slow link keeps its newest gossipDepth
// messages in order and ships them in frames of at most gossipFrame;
// once they are shipped it holds no outbox.
func TestOutboxKeepsNewestInOrder(t *testing.T) {
	leak.Check(t)
	net, g, recs := outboxRig(t, "slow")
	net.SetLink("src", "slow", simnet.Link{Latency: 100 * time.Millisecond})
	blockSender(t, net, g, "slow")
	const sent = 200
	var want []string
	for i := range sent {
		body := fmt.Sprintf("m%03d", i)
		g.enqueue("slow", gossipHint, []byte(body))
		if i >= sent-gossipDepth {
			want = append(want, body)
		}
	}
	waitFor(t, 5*time.Second, "the outbox to drain", func() bool {
		_, msgs := recs["slow"].received()
		return msgs == 1+gossipDepth && g.waiting() == 0
	})
	frames, _ := recs["slow"].received()
	if !slices.Equal(frames[0], []string{"prime"}) {
		t.Fatalf("first frame %v, want the message in flight", frames[0])
	}
	var got []string
	for _, f := range frames[1:] {
		if len(f) > gossipFrame {
			t.Errorf("a frame carries %d messages, want at most %d", len(f), gossipFrame)
		}
		got = append(got, f...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("received %d messages %v … %v, want the newest %d in order", len(got), got[:1], got[len(got)-1:], gossipDepth)
	}
}

// One destination behind a slow link holds up only its own sender:
// gossip to another arrives while the first is still in flight.
func TestSlowDestinationDoesNotStallOthers(t *testing.T) {
	leak.Check(t)
	net, g, recs := outboxRig(t, "slow", "fast")
	const latency = time.Second
	net.SetLink("src", "slow", simnet.Link{Latency: latency})
	blockSender(t, net, g, "slow")
	g.enqueue("fast", gossipHint, []byte("hello"))
	waitFor(t, latency/2, "gossip to fast while slow is in flight", func() bool {
		_, msgs := recs["fast"].received()
		return msgs == 1
	})
	if _, msgs := recs["slow"].received(); msgs != 0 {
		t.Fatalf("slow received %d messages before its link delivered", msgs)
	}
}

// A converged swarm's idle destinations hold no sender: over a sampled
// second its nodes average at most four goroutines each (the protocol
// loop, two workers, and the senders of whoever is mid-batch).
func TestSwarmGoroutinesPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: swarm")
	}
	leak.Check(t)
	const n = 60
	base := runtime.NumGoroutine()
	tc := newCluster(t, n, churnTweak)
	waitFor(t, 60*time.Second, "swarm convergence", func() bool { return swarmConverged(tc.agents, n) })
	sum, samples := 0, 0
	for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(gossipWindow) {
		sum += runtime.NumGoroutine() - base
		samples++
	}
	per := float64(sum) / float64(samples) / n
	t.Logf("%.2f goroutines per node over %d samples", per, samples)
	if per > 4 {
		t.Errorf("a converged %d-node swarm runs %.2f goroutines per node, want at most 4", n, per)
	}
}
