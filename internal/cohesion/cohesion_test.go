package cohesion

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/events"
	"corbalc/internal/idl"
	"corbalc/internal/ior"
	"corbalc/internal/leak"
	"corbalc/internal/node"
	"corbalc/internal/orb"
	"corbalc/internal/race"
	"corbalc/internal/simnet"
	"corbalc/internal/xmldesc"
)

// testCluster is a set of nodes + agents wired over a virtual network.
type testCluster struct {
	net    *simnet.Network
	nodes  []*node.Node
	agents []*Agent
}

func adderSpec(name, ver string) *component.Spec {
	s := &component.Spec{Name: name, Version: ver, Entrypoint: "test/adder.New"}
	s.Provide("sum", "IDL:test/Adder:1.0")
	s.QoS = xmldesc.QoS{CPUMin: 0.05}
	return s
}

func testImpls() *component.Registry {
	reg := component.NewRegistry()
	reg.Register("test/adder.New", func() component.Instance { return &component.Base{} })
	return reg
}

// newAgent attaches one node to the cluster's network and builds its
// agent with the test defaults, not yet joined.
func (tc *testCluster) newAgent(t testing.TB, name string, tweak func(*Config)) (*node.Node, *Agent) {
	t.Helper()
	nd := node.New(node.Config{Name: name, Impls: testImpls(), Profile: node.WorkstationProfile()})
	if err := tc.net.Attach(name, nd.ORB()); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Node:           nd,
		GroupSize:      3,
		Replicas:       2,
		UpdateInterval: 25 * time.Millisecond,
		FailMultiple:   3,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return nd, NewAgent(cfg)
}

// newCluster builds n nodes, bootstraps the first and joins the rest.
func newCluster(t testing.TB, n int, tweak func(*Config)) *testCluster {
	t.Helper()
	tc := &testCluster{net: simnet.New(simnet.Link{})}
	for i := 0; i < n; i++ {
		nd, ag := tc.newAgent(t, fmt.Sprintf("n%02d", i), tweak)
		tc.nodes = append(tc.nodes, nd)
		tc.agents = append(tc.agents, ag)
	}
	if err := tc.agents[0].Bootstrap(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		// A join is idempotent at the root (Assign re-places a known
		// name), so a timeout under load — swarm-sized clusters on a
		// starved CI core — is safe to retry.
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if err = tc.agents[i].Join(tc.nodes[0].Ref(node.NetworkCohesion)); err == nil {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, ag := range tc.agents {
			ag.Stop()
		}
		for _, nd := range tc.nodes {
			nd.Close()
		}
	})
	return tc
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestDirectoryAssignRemove(t *testing.T) {
	leak.Check(t)
	dir := NewDirectory()
	mk := func(name string) *NodeDesc {
		ref := ior.New("IDL:x:1.0", "h", 1, []byte(name))
		return &NodeDesc{Name: name, Cohesion: ref, Registry: ref, Acceptor: ref, Resources: ref}
	}
	for i := 0; i < 7; i++ {
		g, err := dir.Assign(mk(fmt.Sprintf("m%d", i)), 3)
		if err != nil {
			t.Fatal(err)
		}
		if want := i / 3; g != want {
			t.Fatalf("member %d assigned to group %d, want %d", i, g, want)
		}
	}
	if dir.Len() != 7 || len(dir.Groups) != 3 {
		t.Fatalf("dir = %d nodes, %d groups", dir.Len(), len(dir.Groups))
	}
	if dir.GroupOf("m4") != 1 {
		t.Fatalf("GroupOf(m4) = %d", dir.GroupOf("m4"))
	}
	cands := dir.Candidates(0, 2)
	if len(cands) != 2 || cands[0] != "m0" || cands[1] != "m1" {
		t.Fatalf("candidates = %v", cands)
	}
	if rc := dir.RootCandidates(2); rc[0] != "m0" {
		t.Fatalf("root candidates = %v", rc)
	}
	e0 := dir.Epoch
	if !dir.Remove("m0") {
		t.Fatal("remove failed")
	}
	if dir.Epoch <= e0 {
		t.Fatal("epoch not bumped")
	}
	if dir.Remove("m0") {
		t.Fatal("double remove succeeded")
	}
	// After removing the whole first group, the root group moves on.
	dir.Remove("m1")
	dir.Remove("m2")
	if rg := dir.RootGroup(); rg != 1 {
		t.Fatalf("root group after removals = %d", rg)
	}
}

func TestDirectoryMarshalRoundTrip(t *testing.T) {
	leak.Check(t)
	dir := NewDirectory()
	ref := ior.New("IDL:x:1.0", "h", 1, []byte("k"))
	for i := 0; i < 5; i++ {
		if _, err := dir.Assign(&NodeDesc{
			Name: fmt.Sprintf("m%d", i), Capability: "workstation",
			Cohesion: ref, Registry: ref, Acceptor: ref, Resources: ref,
		}, 2); err != nil {
			t.Fatal(err)
		}
	}
	e := cdr.NewEncoder(cdr.BigEndian)
	dir.Marshal(e)
	got, err := UnmarshalDirectory(cdr.NewDecoder(e.Bytes(), cdr.BigEndian))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != dir.Epoch || got.Len() != 5 || len(got.Groups) != 3 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Nodes["m3"].Capability != "workstation" {
		t.Fatal("node desc lost")
	}
	if _, err := UnmarshalDirectory(cdr.NewDecoder([]byte{0, 1}, cdr.BigEndian)); err == nil {
		t.Fatal("garbage directory accepted")
	}
}

func TestJoinBuildsConvergentDirectory(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 7, nil)
	waitFor(t, 3*time.Second, "directory convergence", func() bool {
		want := tc.agents[0].Directory().Epoch
		for _, ag := range tc.agents {
			d := ag.Directory()
			if d.Epoch != want || d.Len() != 7 {
				return false
			}
		}
		return true
	})
	dir := tc.agents[3].Directory()
	if len(dir.Groups) != 3 {
		t.Fatalf("groups = %d", len(dir.Groups))
	}
	for _, g := range dir.Groups {
		if len(g) > 3 {
			t.Fatalf("oversized group %v", g)
		}
	}
}

func TestSoftUpdatesPopulateMRMView(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 3, nil)
	// Install a component on n02; its offers must reach the group MRM
	// (n00) through periodic updates.
	c, err := adderSpec("adder", "1.0.0").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.nodes[2].InstallComponent(c); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "MRM view to include n02's offer", func() bool {
		offers := tc.agents[0].viewQuery("IDL:test/Adder:1.0", "*")
		return len(offers) == 1 && offers[0].Node == "n02"
	})
	// Query from another member of the same group resolves locally (one
	// MRM hop, no root involvement).
	offers, err := tc.agents[1].Query(context.Background(), "IDL:test/Adder:1.0", "*")
	if err != nil || len(offers) != 1 || offers[0].Node != "n02" {
		t.Fatalf("query = %+v, %v", offers, err)
	}
}

func TestHierarchicalQueryAcrossGroups(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 7, nil) // groups: {0,1,2} {3,4,5} {6}
	c, err := adderSpec("adder", "2.0.0").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.nodes[5].InstallComponent(c); err != nil { // group 1
		t.Fatal(err)
	}
	// n06 (group 2) asks; its group has nothing, so the query climbs to
	// the root, whose summaries route it to group 1.
	waitFor(t, 5*time.Second, "cross-group query to find the offer", func() bool {
		offers, err := tc.agents[6].Query(context.Background(), "IDL:test/Adder:1.0", ">=2.0")
		return err == nil && len(offers) == 1 && offers[0].Node == "n05"
	})
	// Version filtering works across the hierarchy.
	offers, err := tc.agents[6].Query(context.Background(), "IDL:test/Adder:1.0", "<2.0")
	if err != nil || len(offers) != 0 {
		t.Fatalf("filtered query = %+v, %v", offers, err)
	}
}

func TestFlatQueryBaseline(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 6, nil)
	waitFor(t, 3*time.Second, "directory convergence", func() bool {
		return tc.agents[1].Directory().Len() == 6
	})
	c, err := adderSpec("adder", "1.0.0").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.nodes[4].InstallComponent(c); err != nil {
		t.Fatal(err)
	}
	offers, err := tc.agents[1].queryFlat(context.Background(), "IDL:test/Adder:1.0", "*")
	if err != nil || len(offers) != 1 || offers[0].Node != "n04" {
		t.Fatalf("flat query = %+v, %v", offers, err)
	}
	// Flat querying must have contacted every other node's registry.
	if st := tc.agents[1].Stats(); st.QueriesSent < 5 {
		t.Fatalf("flat queries sent = %d, want >= 5", st.QueriesSent)
	}
}

func TestFailureDetectionRemovesNode(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 4, nil)
	waitFor(t, 3*time.Second, "initial convergence", func() bool {
		return tc.agents[3].Directory().Len() == 4
	})
	// Crash n02 (same group as the MRM n00): stop its loop and cut it
	// from the network.
	tc.agents[2].Stop()
	tc.net.SetDown("n02", true)
	waitFor(t, 5*time.Second, "root to expel the dead node", func() bool {
		return tc.agents[0].Directory().Len() == 3
	})
	// Survivors learn the new directory.
	waitFor(t, 3*time.Second, "survivors to converge", func() bool {
		return tc.agents[1].Directory().Len() == 3 && tc.agents[3].Directory().Len() == 3
	})
}

// joinLate joins one more node through the root. It stays out of
// tc.agents, which tests read as the survivors.
func (tc *testCluster) joinLate(t testing.TB, name string, tweak func(*Config)) *Agent {
	t.Helper()
	nd, ag := tc.newAgent(t, name, tweak)
	t.Cleanup(func() { ag.Stop(); nd.Close() })
	if err := ag.Join(tc.nodes[0].Ref(node.NetworkCohesion)); err != nil {
		t.Fatal(err)
	}
	return ag
}

// The detection bound (DESIGN.md §13.8): a crash is agreed on by every
// survivor within the failure timeout plus three ticks — one until the
// MRM counts on the member, one of tick phase, one of dissemination —
// whatever the victim's age. The blind spot this pins was a victim that
// died before its first heartbeat: its MRM had never heard from it and
// waited four failure timeouts before the first suspicion.
func TestCrashHealsWithinOneFailTimeoutAtAnyAge(t *testing.T) {
	leak.Check(t)
	tweak := func(c *Config) {
		c.UpdateInterval = 50 * time.Millisecond
		c.FailMultiple = 4
	}
	const n = 8 // groups {0,1,2} {3,4,5} {6,7}: a joiner is group 2's third member
	tc := newCluster(t, n, tweak)
	waitFor(t, 10*time.Second, "initial convergence", func() bool { return swarmConverged(tc.agents, n) })
	interval := tc.agents[0].cfg.UpdateInterval
	bound := tc.agents[0].cfg.failTimeout() + 3*interval
	if race.Enabled {
		bound *= 2
	}
	for i, age := range []time.Duration{0, 2*interval + interval/2} {
		name := fmt.Sprintf("victim%d", i)
		victim := tc.joinLate(t, name, tweak)
		joined, _, _ := tc.agents[0].Stamp() // the root admitted it at this epoch
		if age > 0 {
			waitFor(t, 10*time.Second, "the join to spread", func() bool {
				return swarmConverged(append(tc.agents[:n:n], victim), n+1)
			})
			time.Sleep(age)
		}
		tc.net.SetDown(name, true)
		victim.Stop()
		crashed := time.Now()
		waitFor(t, 10*bound, "survivors to agree on the crash", func() bool {
			epoch, _, _ := tc.agents[0].Stamp()
			return epoch > joined && swarmConverged(tc.agents, n)
		})
		healed := time.Since(crashed)
		t.Logf("victim aged %v: healed in %v (%.1f intervals; bound %v)", age, healed, float64(healed)/float64(interval), bound)
		if healed > bound {
			t.Errorf("victim aged %v: survivors agreed after %v, want within %v", age, healed, bound)
		}
	}
}

// An accusation in flight must not hold up the accuser's own heartbeat:
// with the suspect behind a link slower than several failure timeouts,
// the leader keeps its update cadence and its replica never has cause to
// take over.
func TestSlowAccusationDoesNotStallLeaderHeartbeat(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 3, func(c *Config) { // one group, candidates n00 (leader), n01
		c.UpdateInterval = 50 * time.Millisecond
		c.FailMultiple = 4
	})
	waitFor(t, 5*time.Second, "initial convergence", func() bool { return swarmConverged(tc.agents, 3) })
	leader, replica := tc.agents[0], tc.agents[1]
	waitFor(t, 5*time.Second, "the replica to hear from the leader", func() bool { return !replica.actingLeader(0) })

	// The ping that precedes the accusation takes four failure timeouts
	// to fail.
	delay := 4 * leader.cfg.failTimeout()
	tc.net.SetLink("n00", "n02", simnet.Link{Latency: delay})
	tc.net.SetDown("n02", true)
	tc.agents[2].Stop()
	crashed := time.Now()
	sent := leader.Stats().UpdatesSent
	for leader.Directory().Len() != 2 {
		if replica.actingLeader(0) {
			t.Fatalf("replica took over %v into the accusation: the leader's heartbeat stalled", time.Since(crashed))
		}
		if time.Since(crashed) > 10*delay {
			t.Fatal("the suspect was never expelled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	took := time.Since(crashed)
	if took < delay {
		t.Fatalf("expelled after %v: the accusation never waited on the %v link", took, delay)
	}
	// Two candidates hear from the leader every tick; allow half to slip.
	ticks := uint64(took / leader.cfg.UpdateInterval)
	if got := leader.Stats().UpdatesSent - sent; got < ticks {
		t.Fatalf("leader sent %d updates over %d ticks of accusation, want at least %d", got, ticks, ticks)
	}
}

// The periodic anti-entropy ping must not hold up the heartbeat either:
// with the root behind links slower than several failure timeouts, a
// group leader keeps its update cadence and its replica never has cause
// to take over.
func TestSlowRootPingDoesNotStallLeaderHeartbeat(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 7, func(c *Config) { // groups {0,1,2} {3,4,5} {6}
		c.UpdateInterval = 50 * time.Millisecond
		c.FailMultiple = 4
	})
	waitFor(t, 5*time.Second, "initial convergence", func() bool { return swarmConverged(tc.agents, 7) })
	leader, replica := tc.agents[3], tc.agents[4]
	waitFor(t, 5*time.Second, "the replica to hear from the leader", func() bool { return !replica.actingLeader(1) })

	// The leader pings the root every other tick, and each ping takes
	// four failure timeouts to answer.
	setSyncEvery([]*Agent{leader}, 2)
	delay := 4 * leader.cfg.failTimeout()
	tc.net.SetLink("n03", "n00", simnet.Link{Latency: delay})
	tc.net.SetLink("n03", "n01", simnet.Link{Latency: delay})
	start := time.Now()
	sent := leader.Stats().UpdatesSent
	const ticks = 48
	for time.Since(start) < ticks*leader.cfg.UpdateInterval {
		if replica.actingLeader(1) {
			t.Fatalf("replica took over %v in: the leader's heartbeat stalled behind its root ping", time.Since(start))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Two candidates hear from the leader every tick; allow half to slip.
	if got := leader.Stats().UpdatesSent - sent; got < ticks {
		t.Fatalf("leader sent %d updates over %d ticks of slow root pings, want at least %d", got, ticks, ticks)
	}
}

// A root replica that believes it leads only because the leader's last
// update is late must verify the leader before it acts as the root: its
// ping stands it down, so it never reaps a silent group as a second
// directory writer (two writers fork the directory at one epoch, which
// the anti-entropy digest cannot see).
func TestLateLeaderUpdateDoesNotMakeReplicaReap(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 7, nil) // groups {0,1,2} {3,4,5} {6}; root candidates n00, n01
	waitFor(t, 5*time.Second, "initial convergence", func() bool { return swarmConverged(tc.agents, 7) })
	root, replica := tc.agents[0], tc.agents[1]
	// Group 1 looks dead from the replica alone: its candidates' summaries
	// stop arriving and they would fail the reaper's ping.
	tc.net.Partition("n01", "n03", true)
	tc.net.Partition("n01", "n04", true)
	time.Sleep(5 * replica.cfg.failTimeout())
	replica.mu.Lock()
	replica.c.expectedGroups[1] = time.Now().Add(-time.Hour) // the reaper's window has long run out
	replica.mu.Unlock()
	// The leader's updates now reach the replica several timeouts late.
	tc.net.SetLink("n00", "n01", simnet.Link{Latency: 4 * replica.cfg.failTimeout()})
	for deadline := time.Now().Add(8 * replica.cfg.failTimeout()); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if d := replica.Directory(); d.GroupOf("n03") < 0 || d.GroupOf("n04") < 0 {
			t.Fatalf("replica reaped group 1 at epoch %d while the root leader was alive", d.Epoch)
		}
	}
	re, rn, rx := root.Stamp()
	if e, n, x := replica.Stamp(); e != re || n != rn || x != rx {
		t.Fatalf("replica directory (%d, %d, %x) forked from the root's (%d, %d, %x)", e, n, x, re, rn, rx)
	}
}

func TestMRMFailoverToReplica(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 3, nil) // one group {n00,n01,n02}, candidates n00,n01
	c, err := adderSpec("adder", "1.0.0").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.nodes[2].InstallComponent(c); err != nil {
		t.Fatal(err)
	}
	// Both replicas acquire the view (peer-replicated MRMs).
	waitFor(t, 3*time.Second, "replica n01 to hold the view", func() bool {
		return len(tc.agents[1].viewQuery("IDL:test/Adder:1.0", "*")) == 1
	})
	if !tc.agents[0].actingLeader(0) {
		t.Fatal("n00 should lead initially")
	}
	// Kill the leader.
	tc.agents[0].Stop()
	tc.net.SetDown("n00", true)
	// n01 takes over leadership once n00's updates stop.
	waitFor(t, 5*time.Second, "n01 to assume leadership", func() bool {
		return tc.agents[1].actingLeader(0)
	})
	// Queries from the surviving member still resolve via the replica.
	waitFor(t, 3*time.Second, "query after failover", func() bool {
		offers, err := tc.agents[2].Query(context.Background(), "IDL:test/Adder:1.0", "*")
		return err == nil && len(offers) == 1
	})
}

func TestStrongModePerfectKnowledge(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 4, func(c *Config) { c.Mode = Strong })
	c, err := adderSpec("adder", "1.0.0").Build()
	if err != nil {
		t.Fatal(err)
	}
	// Install on n03; the change listener floods immediately.
	if _, err := tc.nodes[3].InstallComponent(c); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "flooded knowledge on n01", func() bool {
		offers, err := tc.agents[1].Query(context.Background(), "IDL:test/Adder:1.0", "*")
		return err == nil && len(offers) == 1 && offers[0].Node == "n03"
	})
	// In strong mode the query itself was answered locally: zero query
	// messages, non-zero floods.
	st1 := tc.agents[1].Stats()
	st3 := tc.agents[3].Stats()
	if st1.QueriesSent != 0 {
		t.Fatalf("strong-mode query sent %d messages", st1.QueriesSent)
	}
	if st3.Floods == 0 {
		t.Fatal("no floods recorded")
	}
}

// onewayTrace counts, per operation name, the dispatches of the
// operations idl/corbalc.idl declares oneway that the servants it wraps
// receive.
type onewayTrace struct {
	oneway map[string]bool // read-only once built
	mu     sync.Mutex
	ops    map[string]int
}

func newOnewayTrace(t *testing.T) *onewayTrace {
	repo := idl.NewRepository()
	if err := repo.ParseFile("../../idl/corbalc.idl"); err != nil {
		t.Fatal(err)
	}
	tr := &onewayTrace{oneway: make(map[string]bool), ops: make(map[string]int)}
	for _, iface := range repo.Types() {
		if iface.Kind != idl.KindInterface {
			continue
		}
		for _, op := range iface.AllOperations() {
			if op.Oneway {
				tr.oneway[op.Name] = true
			}
		}
	}
	if !tr.oneway["gossip_batch"] {
		t.Fatalf("idl/corbalc.idl oneway operations %v lack gossip_batch", tr.oneway)
	}
	return tr
}

// wrap re-activates every servant o serves behind the trace.
func (tr *onewayTrace) wrap(o *orb.ORB) {
	a := o.Adapter()
	for _, key := range a.Keys() {
		if s, ok := a.Resolve([]byte(key)); ok {
			a.Activate(key, tracedServant{Servant: s, tr: tr})
		}
	}
}

type tracedServant struct {
	orb.Servant
	tr *onewayTrace
}

func (s tracedServant) InvokeContext(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	if s.tr.oneway[op] {
		s.tr.mu.Lock()
		s.tr.ops[op]++
		s.tr.mu.Unlock()
	}
	return s.Servant.InvokeContext(ctx, op, args, reply)
}

// Strong mode is a policy over the gossip plane, not a plane of its
// own: a reflective change reaches every member's view, and the only
// oneway operation any node ever receives is gossip_batch.
func TestStrongFloodRidesGossipOnly(t *testing.T) {
	leak.Check(t)
	trace := newOnewayTrace(t)
	tc := newCluster(t, 5, func(c *Config) { c.Mode = Strong }) // groups {0,1,2} {3,4}
	for _, nd := range tc.nodes {
		trace.wrap(nd.ORB())
	}
	c, err := adderSpec("adder", "1.0.0").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.nodes[4].InstallComponent(c); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "the change to reach every member's view", func() bool {
		for _, ag := range tc.agents[:4] {
			offers := ag.viewQuery("IDL:test/Adder:1.0", "*")
			if len(offers) != 1 || offers[0].Node != "n04" {
				return false
			}
		}
		return true
	})
	trace.mu.Lock()
	defer trace.mu.Unlock()
	if len(trace.ops) != 1 || trace.ops["gossip_batch"] == 0 {
		t.Fatalf("oneway operations received = %v, want gossip_batch only", trace.ops)
	}
}

// The gossip queue settings were options nothing set; they are fixed at
// the values that were their defaults.
func TestGossipQueueDefaultsPinned(t *testing.T) {
	want := events.Config{Depth: 128, Policy: events.DropOldest, BatchWindow: 2 * time.Millisecond}
	if gossipQueue != want {
		t.Fatalf("gossipQueue = %+v, want %+v", gossipQueue, want)
	}
}

func TestDeadBandSendsFewerUpdatesThanPeriodic(t *testing.T) {
	leak.Check(t)
	countUpdates := func(policy SendPolicy) uint64 {
		tc := newCluster(t, 2, func(c *Config) {
			c.Policy = policy
			c.GroupSize = 2
			c.FailMultiple = 20 // push the keep-alive floor out of the way
		})
		time.Sleep(400 * time.Millisecond) // stable load, ~16 intervals
		return tc.agents[1].Stats().UpdatesSent
	}
	periodic := countUpdates(Periodic)
	deadband := countUpdates(DeadBand)
	predictive := countUpdates(Predictive)
	if periodic < 8 {
		t.Fatalf("periodic sent only %d updates", periodic)
	}
	if deadband*2 >= periodic {
		t.Fatalf("deadband (%d) not substantially below periodic (%d)", deadband, periodic)
	}
	if predictive*2 >= periodic {
		t.Fatalf("predictive (%d) not substantially below periodic (%d)", predictive, periodic)
	}
}

// TestE10PredictiveSuppression is E10's trending half (the stable half
// is the test above): under a steadily rising load the linear predictor
// extrapolates the ramp and sends no more updates than the dead band.
func TestE10PredictiveSuppression(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	const window = time.Second
	sent := map[SendPolicy]uint64{}
	for _, policy := range []SendPolicy{DeadBand, Predictive} {
		t.Run(map[SendPolicy]string{DeadBand: "deadband", Predictive: "predictive"}[policy], func(t *testing.T) {
			tc := newCluster(t, 2, func(c *Config) {
				c.Policy = policy
				c.GroupSize = 2
				c.FailMultiple = 20 // push the keep-alive floor out of the way
			})
			waitFor(t, 30*time.Second, "convergence", func() bool { return swarmConverged(tc.agents, 2) })
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() { // the trend: load rises 1.5 per second
				defer close(done)
				start := time.Now()
				tick := time.NewTicker(20 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						tc.nodes[1].Resources().SetBackgroundLoad(time.Since(start).Seconds() * 1.5)
					}
				}
			}()
			time.Sleep(150 * time.Millisecond) // settle the trace
			before := tc.agents[1].Stats()     // a non-leader member: a pure update sender
			time.Sleep(window)
			after := tc.agents[1].Stats()
			close(stop)
			<-done
			sent[policy] = after.UpdatesSent - before.UpdatesSent
			t.Logf("trending: %d updates, %d bytes", sent[policy], after.UpdateBytes-before.UpdateBytes)
		})
	}
	if sent[Predictive] > sent[DeadBand] {
		t.Errorf("predictive %d worse than deadband %d on trending load", sent[Predictive], sent[DeadBand])
	}
}

func TestGracefulLeave(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 4, nil)
	waitFor(t, 3*time.Second, "initial convergence", func() bool {
		return tc.agents[0].Directory().Len() == 4
	})
	tc.agents[3].Leave()
	waitFor(t, 3*time.Second, "directory to drop the leaver", func() bool {
		return tc.agents[0].Directory().Len() == 3
	})
}

func TestQueryBeforeJoinFails(t *testing.T) {
	leak.Check(t)
	nd := node.New(node.Config{Name: "loner", Impls: testImpls()})
	defer nd.Close()
	ag := NewAgent(Config{Node: nd})
	if _, err := ag.Query(context.Background(), "IDL:x:1.0", "*"); err != ErrNotJoined {
		t.Fatalf("err = %v", err)
	}
	if _, err := ag.queryFlat(context.Background(), "IDL:x:1.0", "*"); err != ErrNotJoined {
		t.Fatalf("flat err = %v", err)
	}
}

// Property: any interleaving of joins and removals keeps the directory
// invariants — each member in exactly one group, no group over G, epoch
// strictly monotone, candidates always a prefix of their group.
func TestQuickDirectoryInvariants(t *testing.T) {
	leak.Check(t)
	mk := func(name string) *NodeDesc {
		ref := ior.New("IDL:x:1.0", "h", 1, []byte(name))
		return &NodeDesc{Name: name, Cohesion: ref, Registry: ref, Acceptor: ref, Resources: ref}
	}
	f := func(ops []uint8, gRaw uint8) bool {
		g := int(gRaw)%6 + 1
		dir := NewDirectory()
		lastEpoch := dir.Epoch
		for i, op := range ops {
			name := fmt.Sprintf("m%d", int(op)%12)
			if i%3 == 2 {
				dir.Remove(name)
			} else {
				if _, err := dir.Assign(mk(name), g); err != nil {
					return false
				}
			}
			if dir.Epoch < lastEpoch {
				return false
			}
			lastEpoch = dir.Epoch
		}
		// Invariants.
		seen := map[string]int{}
		for gi, members := range dir.Groups {
			if len(members) > g {
				return false
			}
			for _, m := range members {
				seen[m]++
				if dir.GroupOf(m) != gi && seen[m] == 1 {
					// GroupOf returns the first occurrence; with the
					// idempotent Assign there must be exactly one.
					return false
				}
			}
		}
		for name, count := range seen {
			if count != 1 {
				return false
			}
			if _, ok := dir.Nodes[name]; !ok {
				return false
			}
		}
		if len(seen) != dir.Len() {
			return false
		}
		for gi := range dir.Groups {
			cands := dir.Candidates(gi, 2)
			members := dir.Members(gi)
			if len(cands) > 2 || len(cands) > len(members) {
				return false
			}
			for i, c := range cands {
				if members[i] != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: directories of any shape survive the wire round trip.
func TestQuickDirectoryMarshalRoundTrip(t *testing.T) {
	leak.Check(t)
	mk := func(name string) *NodeDesc {
		ref := ior.New("IDL:x:1.0", "h", 1, []byte(name))
		return &NodeDesc{Name: name, Capability: "w", Cohesion: ref, Registry: ref, Acceptor: ref, Resources: ref}
	}
	f := func(names []uint8, gRaw uint8) bool {
		g := int(gRaw)%5 + 1
		dir := NewDirectory()
		for _, n := range names {
			if _, err := dir.Assign(mk(fmt.Sprintf("n%d", n)), g); err != nil {
				return false
			}
		}
		e := cdr.NewEncoder(cdr.LittleEndian)
		dir.Marshal(e)
		got, err := UnmarshalDirectory(cdr.NewDecoder(e.Bytes(), cdr.LittleEndian))
		if err != nil {
			return false
		}
		if got.Epoch != dir.Epoch || got.Len() != dir.Len() || len(got.Groups) != len(dir.Groups) {
			return false
		}
		for i := range dir.Groups {
			if len(got.Groups[i]) != len(dir.Groups[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryAllSpansGroups(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 6, nil) // groups {0,1,2} {3,4,5}
	comp, err := adderSpec("adder", "1.0.0").Build()
	if err != nil {
		t.Fatal(err)
	}
	// One provider in each group.
	if _, err := tc.nodes[1].InstallComponent(comp); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.nodes[4].InstallComponent(comp); err != nil {
		t.Fatal(err)
	}
	// Plain Query from n02 stops at its group (locality): one offer.
	waitFor(t, 5*time.Second, "local query", func() bool {
		offers, err := tc.agents[2].Query(context.Background(), "IDL:test/Adder:1.0", "*")
		return err == nil && len(offers) == 1 && offers[0].Node == "n01"
	})
	// QueryAll merges both groups.
	waitFor(t, 5*time.Second, "exhaustive query", func() bool {
		offers, err := tc.agents[2].QueryAll(context.Background(), "IDL:test/Adder:1.0", "*")
		if err != nil || len(offers) != 2 {
			return false
		}
		nodes := map[string]bool{}
		for _, of := range offers {
			nodes[of.Node] = true
		}
		return nodes["n01"] && nodes["n04"]
	})
}

func TestAntiEntropyRejoinAfterFalseExpulsion(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 4, nil)
	waitFor(t, 3*time.Second, "convergence", func() bool {
		return tc.agents[0].Directory().Len() == 4
	})
	// Simulate a false expulsion: the root removes a live member behind
	// its back.
	victim := tc.agents[3]
	if err := victim.callRoot(context.Background(), "report_dead", func(e *cdr.Encoder) { e.WriteString("n03") }, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "expulsion to propagate", func() bool {
		return tc.agents[0].Directory().Len() == 3
	})
	// Anti-entropy on the victim notices the divergence and rejoins.
	waitFor(t, 10*time.Second, "victim to rejoin", func() bool {
		return tc.agents[0].Directory().Len() == 4
	})
}

func TestExpelledNodeUnwedgesViaTickAntiEntropy(t *testing.T) {
	leak.Check(t)
	// The wedge found by the 1000-node swarm bench: a node applies the
	// delta that expels it, its one expulsion-triggered pull is lost
	// under load, and then nothing ever repairs it — deltas stop flowing
	// to non-members, and a tick loop that bails out whenever the node
	// is absent from its own directory never runs anti-entropy again.
	// Reproduce the post-failure state directly (bypassing the protocol
	// so no immediate pull fires) and require the periodic tick to
	// rejoin: the node was expelled at the root's current epoch, so the
	// digest ping alone cannot spot the divergence either.
	tc := newCluster(t, 4, nil)
	waitFor(t, 3*time.Second, "convergence", func() bool {
		return tc.agents[0].Directory().Len() == 4
	})
	root, victim := tc.agents[0], tc.agents[3]
	root.mu.Lock()
	dir := root.c.dir.Clone()
	dir.Remove("n03")
	root.c.dir = dir
	rootEpoch := dir.Epoch
	root.mu.Unlock()
	victim.mu.Lock()
	victim.c.dir = dir.Clone() // same epoch as the root, self absent
	victim.mu.Unlock()
	waitFor(t, 10*time.Second, "victim to rejoin", func() bool {
		d := root.Directory()
		return d.GroupOf("n03") >= 0 && d.Epoch > rootEpoch &&
			victim.Directory().GroupOf("n03") >= 0
	})
}

func TestJoinForwardedThroughNonRootContact(t *testing.T) {
	leak.Check(t)
	// Join via a contact that is NOT the root leader: the contact must
	// forward to the root and return a directory that includes the
	// newcomer.
	tc := newCluster(t, 3, nil)
	nd := node.New(node.Config{Name: "late", Impls: testImpls(), Profile: node.WorkstationProfile()})
	if err := tc.net.Attach("late", nd.ORB()); err != nil {
		t.Fatal(err)
	}
	ag := NewAgent(Config{Node: nd, GroupSize: 3, Replicas: 2, UpdateInterval: 25 * time.Millisecond})
	t.Cleanup(func() { ag.Stop(); nd.Close() })
	// agents[2] is a plain member, not even an MRM candidate.
	if err := ag.Join(tc.nodes[2].Ref(node.NetworkCohesion)); err != nil {
		t.Fatal(err)
	}
	if ag.Directory().Len() != 4 {
		t.Fatalf("directory after forwarded join = %d", ag.Directory().Len())
	}
	if ag.Directory().GroupOf("late") != 1 {
		t.Fatalf("late lands in group %d", ag.Directory().GroupOf("late"))
	}
}
