package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"corbalc"
	"corbalc/internal/cohesion"
	"corbalc/internal/component"
	"corbalc/internal/simnet"
)

// swarm_churn: a 120-node cluster on the zero-delay virtual network,
// healed through rounds of crash and rejoin. The control plane's only
// workload: no TCP, no gateway.

const (
	swarmNodes   = 120
	swarmChurn   = 6 // nodes killed, then joined, per round
	swarmPlaces  = 20
	agreeTimeout = 30 * time.Second
)

var swarmOptions = corbalc.Options{
	UpdateInterval: 50 * time.Millisecond,
	GroupSize:      8,
	FailMultiple:   4,
}

type swarmRun struct {
	net   *simnet.Network
	live  []*corbalc.Peer // current members; live[0] is the bootstrap peer and never dies
	rng   *rand.Rand
	fresh int // names handed to joiners so far

	converge     time.Duration // formation through agreement
	place        []time.Duration
	heal, rejoin []time.Duration // per round
	join         []time.Duration // per joining peer
	steadyBytes  float64         // control bytes per node per second with no churn
	steadyMsgs   float64
	windowBytes  uint64 // simnet bytes over the measured window
	windowSecs   float64
	timeouts     int // rounds whose survivors never agreed
}

func prepareSwarm(cfg runConfig) func() (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	return func() (instance, error) {
		x := &swarmRun{rng: rng}
		if err := x.setup(); err != nil {
			x.teardown()
			return nil, err
		}
		return x, nil
	}
}

// setup forms the cluster, waits until every directory agrees, and
// places a component through the deployment engine from the far end of
// the swarm (the deploy layer's probe).
func (x *swarmRun) setup() error {
	start := time.Now()
	impls := component.NewRegistry()
	impls.Register("bench/worker.New", func() component.Instance { return &component.Base{} })
	opts := swarmOptions
	opts.Impls = impls
	c, err := corbalc.NewCluster(swarmNodes, "n%03d", simnet.Link{}, opts)
	if err != nil {
		return err
	}
	x.net, x.live = c.Net, c.Peers
	if !x.agree(len(x.live)) {
		return errors.New("swarm never converged after formation")
	}
	x.converge = time.Since(start)

	spec := &component.Spec{Name: "worker", Version: "1.0.0", Entrypoint: "bench/worker.New"}
	spec.Provide("work", "IDL:bench/Work:1.0")
	comp, err := spec.Build()
	if err != nil {
		return err
	}
	if _, err := x.live[0].Node.InstallComponent(comp); err != nil {
		return err
	}
	far := x.live[len(x.live)-1]
	for i := 0; i < swarmPlaces; i++ {
		t0 := time.Now()
		if err := placeWithRetry(far, fmt.Sprintf("w%d", i)); err != nil {
			return err
		}
		x.place = append(x.place, time.Since(t0))
	}
	return nil
}

// placeWithRetry places one worker instance; the first placement may
// have to wait for the offer to reach the querying side's MRM.
func placeWithRetry(from *corbalc.Peer, instance string) error {
	var err error
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err = from.Engine.Place(ctx, "worker", "*", instance)
		cancel()
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("deploy: place %s: %w", instance, err)
}

// agree polls until every live agent carries the same directory stamp
// over exactly want members.
func (x *swarmRun) agree(want int) bool {
	for deadline := time.Now().Add(agreeTimeout); ; time.Sleep(time.Millisecond) {
		if stamped(x.live, want) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

func stamped(peers []*corbalc.Peer, want int) bool {
	e0, n0, x0 := peers[0].Agent.Stamp()
	if n0 != want {
		return false
	}
	for _, p := range peers[1:] {
		if e, n, xr := p.Agent.Stamp(); e != e0 || n != n0 || xr != x0 {
			return false
		}
	}
	return true
}

// victims picks the newest member of swarmChurn distinct non-root
// groups, the groups chosen by the seeded generator. Newest members are
// never a group's MRM replicas, so a round measures dissemination of
// plain deaths and joins, not MRM failover.
func (x *swarmRun) victims() []int {
	dir := x.live[0].Agent.Directory()
	index := make(map[string]int, len(x.live))
	for i, p := range x.live {
		index[p.Node.Name()] = i
	}
	var groups []int
	for g, members := range dir.Groups {
		if g != dir.RootGroup() && len(members) > 2 {
			groups = append(groups, g)
		}
	}
	x.rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	var out []int
	for _, g := range groups[:min(swarmChurn, len(groups))] {
		members := dir.Groups[g]
		if i, ok := index[members[len(members)-1]]; ok && i != 0 {
			out = append(out, i)
		}
	}
	return out
}

// round is one operation: crash, heal, rejoin, reconverge. It reports
// whether the survivors and then the whole swarm agreed in time.
func (x *swarmRun) round(tr *tracer) bool {
	var root uint64
	span := func(name string, start time.Time) {
		if tr != nil {
			tr.add(name, tr.newID(), root, root, start, time.Now())
		}
	}
	if tr != nil {
		root = tr.newID()
	}
	begin := time.Now()

	kill := x.victims()
	gone := make(map[int]bool, len(kill))
	for _, i := range kill {
		gone[i] = true
		x.net.SetDown(x.live[i].Node.Name(), true)
		x.live[i].Close() // a crash: nobody is told
	}
	survivors := x.live[:0:0]
	for i, p := range x.live {
		if !gone[i] {
			survivors = append(survivors, p)
		}
	}
	x.live = survivors
	span("swarm.kill", begin)

	t0 := time.Now()
	ok := x.agree(len(x.live))
	x.heal = append(x.heal, time.Since(t0))
	span("cohesion.heal", t0)

	t1 := time.Now()
	for range kill {
		tj := time.Now()
		p, err := x.joinFresh()
		if err != nil {
			ok = false
			continue
		}
		x.live = append(x.live, p)
		x.join = append(x.join, time.Since(tj))
	}
	span("cohesion.Join", t1)

	t2 := time.Now()
	ok = x.agree(len(x.live)) && ok
	x.rejoin = append(x.rejoin, time.Since(t1))
	span("cohesion.rejoin", t2)
	if tr != nil {
		tr.add("swarm.round", root, 0, root, begin, time.Now())
	}
	if !ok {
		x.timeouts++
	}
	return ok
}

func (x *swarmRun) joinFresh() (*corbalc.Peer, error) {
	x.fresh++
	name := fmt.Sprintf("j%05d", x.fresh)
	p := corbalc.NewPeer(name, swarmOptions)
	if err := x.net.Attach(name, p.Node.ORB()); err != nil {
		p.Close()
		return nil, err
	}
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = p.Join(x.live[0].Contact()); err == nil {
			return p, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	x.net.Detach(name)
	p.Close()
	return nil, err
}

func (x *swarmRun) drive(w *window) (driven, error) {
	recs, err := newRecorders(1, w, 100)
	if err != nil {
		return driven{}, err
	}
	// Control traffic with nobody dying: the warm-up is the steady state.
	x.net.ResetStats()
	steadyStart := time.Now()
	time.Sleep(time.Until(w.start))
	msgs, bytes := x.net.Totals()
	if secs := time.Since(steadyStart).Seconds(); secs > 0 {
		x.steadyBytes = float64(bytes) / float64(len(x.live)) / secs
		x.steadyMsgs = float64(msgs) / float64(len(x.live)) / secs
	}
	x.net.ResetStats()
	d := drive(w, recs, func(_ int, rec *recorder) {
		// Rounds are few: trace every one that starts in a traced slice.
		closedLoop(w, rec, func(int, *tracer) bool {
			return x.round(w.tracerFor(0, time.Now()))
		})
	})
	_, x.windowBytes = x.net.Totals()
	x.windowSecs = (time.Duration(w.slices) * w.sliceLen).Seconds()
	return d, nil
}

func (x *swarmRun) counters(m map[string]float64) {
	msgs, bytes := x.net.Totals()
	m["simnet.msgs"] = float64(msgs)
	m["simnet.bytes"] = float64(bytes)
	m["cohesion.form_s"] = x.converge.Seconds()
	m["cohesion.join_ms"] = medianIn(time.Millisecond, x.join)
	m["cohesion.heal_p50_ms"] = medianIn(time.Millisecond, x.heal)
	m["cohesion.rejoin_p50_ms"] = medianIn(time.Millisecond, x.rejoin)
	m["cohesion.steady_bytes_per_node_s"] = x.steadyBytes
	m["cohesion.msgs_per_node_s"] = x.steadyMsgs
	m["deploy.place_ms"] = medianIn(time.Millisecond, x.place)
	if x.windowSecs > 0 {
		m["raw.ctl_bytes_per_node_s"] = float64(x.windowBytes) / float64(len(x.live)) / x.windowSecs
	}
	var st cohesion.Stats
	var served, errs uint64
	for _, p := range x.live {
		s := p.Agent.Stats()
		st.DeltasSent += s.DeltasSent
		st.PullsServed += s.PullsServed
		st.RepairHintsSent += s.RepairHintsSent
		st.GossipBatches += s.GossipBatches
		served += p.Node.ORB().RequestsServed()
		a, b := p.Node.ORB().Stats().Errors()
		errs += a + b
	}
	m["cohesion.deltas_sent"] = float64(st.DeltasSent)
	m["cohesion.pulls_served"] = float64(st.PullsServed)
	m["cohesion.hints_sent"] = float64(st.RepairHintsSent)
	m["cohesion.gossip_batches"] = float64(st.GossipBatches)
	m["orb.requests_served"] = float64(served)
	m["orb.errors"] = float64(errs)
}

func (x *swarmRun) close() (failures int, err error) {
	if x.timeouts > 0 {
		err = fmt.Errorf("swarm_churn: %d rounds never reached agreement", x.timeouts)
	}
	x.teardown()
	return 0, err // timed-out rounds already count as failed ops
}

func (x *swarmRun) teardown() {
	for _, p := range x.live {
		p.Close()
	}
}
