package cohesion

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"corbalc/internal/node"
)

// The core tests drive the protocol with no network, no goroutine and no
// sleep: the time is a value each test advances, so every boundary is
// pinned exactly where the wall-clock tests can only bracket it.

// actingLeader reports whether the agent currently leads group.
func (a *Agent) actingLeader(group int) (leads bool) {
	a.locked(func(c *core, now time.Time) { leads = c.actingLeader(now, group) })
	return leads
}

// handleDelta hands the agent one gossip delta, as dispatchGossip does.
func (a *Agent) handleDelta(d *DirectoryDelta, raw []byte) {
	a.step(func(c *core, now time.Time) []action { return c.delta(now, d, raw) })
}

// setSyncEvery sets every agent's anti-entropy period, in ticks.
func setSyncEvery(agents []*Agent, ticks uint64) {
	for _, ag := range agents {
		ag.locked(func(c *core, _ time.Time) { c.syncEvery = ticks })
	}
}

// testCore is self's core, joined to a directory of names in join order
// (groups of 3, the first 2 of each its MRM candidates), with an empty
// view.
func testCore(self string, names ...string) *core {
	cfg := Config{GroupSize: 3, Replicas: 2, UpdateInterval: 50 * time.Millisecond, FailMultiple: 4}
	cfg.fill()
	c := newCore(cfg, self)
	dir := NewDirectory()
	for _, name := range names {
		dir.assign(testEntry(name), cfg.GroupSize)
	}
	c.enter(dir)
	return &c
}

var actNames = map[actKind]string{
	actSend: "send", actFlood: "flood", actDrop: "drop", actPrune: "prune",
	actPull: "pull", actDetect: "detect", actPing: "ping", actSyncPull: "sync_pull",
	actRejoin: "rejoin", actSnapshot: "snapshot", actProbe: "probe", actReport: "report_dead",
	actReap: "reap", actReapProbe: "reap_probe", actRemove: "remove",
}

// show renders actions as "kind peer" in order, comma-separated.
func show(acts []action) string {
	parts := make([]string, 0, len(acts))
	for _, act := range acts {
		parts = append(parts, strings.TrimSpace(actNames[act.kind]+" "+act.peer))
	}
	return strings.Join(parts, ", ")
}

func expectActs(t *testing.T, what string, acts []action, want string) {
	t.Helper()
	if got := show(acts); got != want {
		t.Fatalf("%s: actions [%s], want [%s]", what, got, want)
	}
}

// A member never heard from is counted on from the first failure duty
// and suspected exactly one failure timeout later, like a member gone
// silent. A probe that answers clears the suspicion; a report the root
// accepts drops the member, so it is accused once.
func TestCoreSuspicionBoundary(t *testing.T) {
	c := testCore("n00", "n00", "n01", "n02") // one group, n00 leads
	ft := c.cfg.failTimeout()
	t0 := time.Unix(1000, 0)
	expectActs(t, "first duty", c.detect(t0), "reap")
	expectActs(t, "1ns early", c.detect(t0.Add(ft-1)), "reap")
	t1 := t0.Add(ft)
	expectActs(t, "at the timeout", c.detect(t1), "probe n01, probe n02, reap")

	expectActs(t, "n01 answers", c.probed(t1, action{kind: actProbe, peer: "n01"}, true), "")
	expectActs(t, "n02 is silent", c.probed(t1, action{kind: actProbe, peer: "n02"}, false), "report_dead n02")
	c.reported("n02", false) // the root was unreachable: still suspected
	expectActs(t, "after a failed report", c.detect(t1.Add(ft-1)), "probe n02, reap")
	c.reported("n02", true)
	expectActs(t, "after the report", c.detect(t1.Add(ft-1)), "reap")
}

// The hint damper: a peer advertising the same stale epoch is hinted on
// its 3rd and 6th observation, never by a node that may not hint, never
// when it is unknown; a receiver pulls once per stuck episode.
func TestCoreHintDamper(t *testing.T) {
	c := testCore("n00", "n00", "n01", "n02") // at epoch 3
	var hinted []int
	for i := 1; i <= 7; i++ {
		acts := c.observePeerEpoch("n02", 1, true)
		if len(acts) == 0 {
			continue
		}
		hinted = append(hinted, i)
		if act := acts[0]; len(acts) != 1 || act.kind != actSend || act.peer != "n02" || act.msg != gossipHint {
			t.Fatalf("observation %d: actions [%s], want one hint to n02", i, show(acts))
		}
	}
	if !slices.Equal(hinted, []int{3, 6}) || c.stats.RepairHintsSent != 2 {
		t.Fatalf("hinted on observations %v (%d sent), want [3 6]", hinted, c.stats.RepairHintsSent)
	}
	for i := 1; i <= 6; i++ {
		expectActs(t, "may not hint", c.observePeerEpoch("n01", 1, false), "")
		expectActs(t, "unknown peer", c.observePeerEpoch("stranger", 1, true), "")
	}

	r := testCore("n02", "n00", "n01", "n02")
	r.dir.Epoch = 1 // the stuck node
	expectActs(t, "first hint", r.hint(3), "pull")
	expectActs(t, "re-hint, same episode", r.hint(3), "")
	r.dir.Epoch = 2 // it moved, and stuck again
	expectActs(t, "hint, next episode", r.hint(3), "pull")
	expectActs(t, "hint not ahead", r.hint(2), "")
	if r.stats.RepairHintsRecv != 4 {
		t.Fatalf("hints received = %d, want 4", r.stats.RepairHintsRecv)
	}
}

// Every delta outcome, and what a removal purges.
func TestCoreDeltaOutcomes(t *testing.T) {
	c := testCore("n02", "n00", "n01", "n02", "n03") // groups {n00 n01 n02} {n03}
	now := time.Unix(1000, 0)
	c.view["n03"] = &memberState{lastSeen: now}
	c.sent["n03"] = 1
	c.peerEpochs["n03"] = &epochStreak{epoch: 1}
	e := c.dir.Epoch
	expectActs(t, "stale", c.delta(now, &DirectoryDelta{From: e - 1, To: e}, nil), "")
	expectActs(t, "gap", c.delta(now, &DirectoryDelta{From: e + 1, To: e + 2}, nil), "pull")
	if c.dir.Epoch != e {
		t.Fatalf("a gap moved the epoch to %d", c.dir.Epoch)
	}
	expectActs(t, "applied", c.delta(now, &DirectoryDelta{From: e, To: e + 1, Removes: []string{"n03"}}, nil), "drop n03")
	if c.dir.Epoch != e+1 || c.dir.GroupOf("n03") >= 0 {
		t.Fatalf("applied removal left epoch %d, n03 in group %d", c.dir.Epoch, c.dir.GroupOf("n03"))
	}
	if c.view["n03"] != nil || c.peerEpochs["n03"] != nil {
		t.Fatal("the removal left n03 in the view or the stuck detector")
	}
	if _, ok := c.sent["n03"]; ok {
		t.Fatal("the removal left n03's offers epoch")
	}
	expectActs(t, "self gone", c.delta(now, &DirectoryDelta{From: e + 1, To: e + 2, Removes: []string{"n02"}}, nil), "pull")
	if c.stats.DeltasRecv != 4 || c.stats.DeltasApplied != 2 {
		t.Fatalf("deltas received/applied = %d/%d, want 4/2", c.stats.DeltasRecv, c.stats.DeltasApplied)
	}
}

// The anti-entropy decision table, from the digest ping to the snapshot.
func TestCoreSyncDecisions(t *testing.T) {
	c := testCore("n02", "n00", "n01", "n02")
	expectActs(t, "same epoch, a member", c.pinged(c.dir.Epoch), "")
	expectActs(t, "behind the root", c.pinged(c.dir.Epoch+1), "sync_pull")

	// Expelled at the root's own epoch: the digest matches, the pull must
	// still happen, and the patch without self means rejoin.
	root := c.dir.Clone()
	root.Remove("n02")
	c.dir = root.Clone()
	acts := c.pinged(root.Epoch)
	expectActs(t, "expelled at the root's epoch", acts, "sync_pull")
	expectActs(t, "patch without self", c.patched(root.BuildPatch(acts[0].vv)), "rejoin")
	rejoined := root.Clone()
	rejoined.assign(testEntry("n02"), 3)
	now := time.Unix(1000, 0)
	expectActs(t, "rejoined", c.rejoined(now, rejoined, node.Report{Node: "n02"}, nil), "prune, send n00, send n01")
	if c.dir != rejoined {
		t.Fatal("the rejoin's directory was not adopted")
	}

	// A newer patch that names a member this node never saw, without its
	// entry, cannot be rebuilt: fall back to the snapshot.
	newer := c.dir.Clone()
	newer.assign(testEntry("n03"), 3)
	vv := newer.VersionVector() // claims n03 is known: the patch ships no entry for it
	expectActs(t, "patch that cannot be rebuilt", c.patched(newer.BuildPatch(vv)), "snapshot")
	expectActs(t, "patch not newer", c.patched(c.dir.BuildPatch(c.dir.VersionVector())), "")
	expectActs(t, "patch that rebuilds", c.patched(newer.BuildPatch(c.dir.VersionVector())), "prune")
	if c.dir.Epoch != newer.Epoch || c.dir.GroupOf("n03") < 0 {
		t.Fatalf("rebuilt directory at epoch %d lacks n03", c.dir.Epoch)
	}
	if c.stats.AntiEntropyPulls != 2 {
		t.Fatalf("pulls = %d, want 2", c.stats.AntiEntropyPulls)
	}
}

// A leaver that receives its own removal never rejoins: once Leave has
// cleared joined, the delta that expels it, a digest ping, a patch
// without it and a rejoin reply that raced the leave all leave it out.
func TestCoreLeaverNeverRejoins(t *testing.T) {
	c := testCore("n02", "n00", "n01", "n02")
	c.joined = false // Leave's first step, before its leave RPC
	now := time.Unix(1000, 0)
	root := c.dir.Clone()
	root.Remove("n02")
	removal := &DirectoryDelta{From: c.dir.Epoch, To: root.Epoch, Removes: []string{"n02"}}
	expectActs(t, "own removal", c.delta(now, removal, nil), "")
	expectActs(t, "gap", c.delta(now, &DirectoryDelta{From: root.Epoch + 1, To: root.Epoch + 2}, nil), "")
	expectActs(t, "repair hint", c.hint(root.Epoch+5), "")
	expectActs(t, "digest ping", c.pinged(root.Epoch), "")
	expectActs(t, "digest ping ahead", c.pinged(root.Epoch+1), "")
	expectActs(t, "patch without self", c.patched(root.BuildPatch(c.dir.VersionVector())), "")
	rejoined := root.Clone()
	rejoined.assign(testEntry("n02"), 3)
	expectActs(t, "late rejoin", c.rejoined(now, rejoined, node.Report{Node: "n02"}, nil), "")
	if c.dir == rejoined || c.dir.GroupOf("n02") >= 0 {
		t.Fatal("a leaver adopted the directory of a rejoin")
	}
	if c.stats.AntiEntropyPulls != 0 {
		t.Fatalf("a leaver pulled %d times", c.stats.AntiEntropyPulls)
	}
}

// A root replica whose leader's update is late believes it leads the
// root: its failure duty probes the leader before any reap, and once the
// probe answers it reaps nothing — the reap belongs to the one root
// writer.
func TestCoreProbesLeaderBeforeReap(t *testing.T) {
	setup := func() (*core, time.Time) {
		// groups {n00 n01 n02} {n03 n04 n05} {n06}; n01 is the root replica.
		c := testCore("n01", "n00", "n01", "n02", "n03", "n04", "n05", "n06")
		t0 := time.Unix(1000, 0)
		late := t0.Add(c.cfg.failTimeout())
		c.view["n00"] = &memberState{report: &node.Report{Node: "n00"}, lastSeen: t0}
		c.view["n02"] = &memberState{report: &node.Report{Node: "n02"}, lastSeen: late}
		c.expectedGroups[1] = t0.Add(-time.Hour) // group 1 silent far beyond the window
		c.summaries[2] = &groupSummary{group: 2, lastSeen: late}
		return c, late
	}

	c, late := setup()
	acts := c.detect(late)
	expectActs(t, "late leader", acts, "probe n00, reap")
	expectActs(t, "the leader answers", c.probed(late, acts[0], true), "")
	expectActs(t, "reap after the answer", c.reap(late), "")

	c, late = setup()
	acts = c.detect(late)
	expectActs(t, "the leader is silent", c.probed(late, acts[0], false), "report_dead n00")
	acts = c.reap(late)
	expectActs(t, "reap after the silence", acts, "reap_probe n03, reap_probe n04")
	expectActs(t, "a candidate answers", c.probed(late, acts[0], true), "")
	expectActs(t, "a candidate is silent", c.probed(late, acts[1], false), "remove n04")
}

// Nodes that joined in the same tick send their digest pings spread over
// the anti-entropy period, each once per period at a phase of its own,
// not all in the same tick.
func TestCoreDigestPhaseSpread(t *testing.T) {
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("n%03d", i)
	}
	now := time.Unix(1000, 0)
	phases := map[uint64]bool{}
	for _, name := range names {
		c := testCore(name, names...)
		var pulls []uint64
		for tick := uint64(1); tick <= 2*c.syncEvery; tick++ {
			acts := c.tick(now, node.Report{Node: name}, nil)
			if slices.ContainsFunc(acts, func(a action) bool { return a.kind == actPull }) {
				pulls = append(pulls, tick)
			}
		}
		if len(pulls) != 2 || pulls[1]-pulls[0] != c.syncEvery {
			t.Fatalf("%s pinged at ticks %v over two periods of %d, want once a period", name, pulls, c.syncEvery)
		}
		phases[pulls[0]] = true
	}
	if len(phases) < 8 {
		t.Errorf("16 nodes that joined together ping in %d distinct ticks of the period, want at least 8", len(phases))
	}
}
