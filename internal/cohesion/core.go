package cohesion

import (
	"maps"
	"math"
	"slices"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/node"
	"corbalc/internal/version"
)

// This file is the protocol (paper §2.4.3, DESIGN.md §13.9): one core
// value owns all protocol state and makes every decision. Each method
// takes the time and one input — a tick, a gossip entry, a root
// mutation, the outcome of an RPC — updates the state and returns the
// actions to perform. The core reads no clock, takes no lock, starts no
// goroutine and does no I/O; the Agent is the shell that feeds it under
// one lock and performs its actions once that lock is released.

// actKind names one thing the shell does for the core. An RPC's outcome
// goes back into the core method named beside it.
type actKind uint8

const (
	actSend      actKind = iota // queue body for peer on the gossip plane
	actFlood                    // ship body to peer in a frame of its own
	actDrop                     // tear down peer's gossip channel
	actPrune                    // tear down every channel not in members
	actPull                     // kick the pull worker: anti-entropy
	actDetect                   // kick the death worker: failure duties
	actPing                     // root digest ping → pinged
	actSyncPull                 // sync_pull with vv → patched
	actRejoin                   // join through the root → rejoined
	actSnapshot                 // get_directory → adopt
	actProbe                    // ping a suspect member → probed
	actReport                   // report_dead peer to the root → reported
	actReap                     // the root's reap duty → reap
	actReapProbe                // ping a silent group's candidate → probed
	actRemove                   // remove peer at the root, or forward it there
)

// action is one step the shell performs for the core.
type action struct {
	kind    actKind
	peer    string
	msg     byte              // gossip kind (actSend, actFlood)
	body    []byte            // gossip body, never mutated once returned
	vv      map[string]uint64 // actSyncPull's version vector
	members []string          // actPrune's surviving destinations, sorted
}

// memberState is an MRM's knowledge of one node. Until the member's
// first update arrives report is nil and lastSeen is when this MRM first
// counted on it: silence from birth and silence after run on one clock.
type memberState struct {
	report   *node.Report
	offers   []*node.Offer
	lastSeen time.Time
}

// groupSummary is the root MRM's aggregated knowledge of one group
// ("a hierarchical treatment of network resources", §2.4.3).
type groupSummary struct {
	group    int
	alive    uint32
	freeCPU  float64
	exports  map[string]bool // provided port repo IDs in the group
	lastSeen time.Time
}

// epochStreak is one peer's entry in the stuck detector: the epoch it
// last advertised and how many consecutive observations it has sat
// there.
type epochStreak struct {
	epoch  uint64
	streak int
}

// hintStreak is how many consecutive no-progress advertisements mark a
// peer as stuck rather than merely lagging. Hints repeat every
// hintStreak further static observations (the cooldown), so a peer
// whose pull was lost gets another one.
const hintStreak = 3

// core is the protocol state of one agent.
type core struct {
	cfg  Config // Node cleared: the shell reads the node, the core never does
	name string
	// syncEvery is the anti-entropy period in ticks, 4·(FailMultiple+1).
	syncEvery uint64
	// syncPhase offsets this node's digest pings within the period by a
	// hash of its name, so nodes that joined within one period do not
	// ping the root, and pull, in the same ticks.
	syncPhase uint64

	joined    bool
	dir       *Directory
	view      map[string]*memberState
	summaries map[int]*groupSummary
	// expectedGroups tracks when the root first counted on a group's
	// summaries: a group whose MRM candidates all died would otherwise go
	// silent forever, since non-candidate members never act as leader.
	expectedGroups map[int]time.Time
	// sent is the offers epoch last shipped to each MRM replica, so
	// periodic updates can omit the offer list while it is unchanged.
	sent map[string]uint64
	// peerEpochs tracks, per gossiping peer, the epoch it last
	// advertised and for how many consecutive observations it has not
	// moved — the stuck detector behind repair hints. Stale alone is
	// not stuck: during churn a peer routinely advertises old epochs
	// while the deltas repairing it sit in the relay queue.
	peerEpochs map[string]*epochStreak
	// hintPulled is this node's own epoch the last time it honored a
	// repair hint with a pull: one hint-pull per stuck episode. The
	// leader keeps re-hinting a node that stays stuck (its pull may
	// have been lost), but honoring every re-hint while the first pull
	// is still queued behind a saturated root just multiplies load —
	// a genuinely lost pull is caught by periodic anti-entropy.
	hintPulled uint64

	// send-policy history
	lastSent, prevSent     *node.Report
	lastSentAt, prevSentAt time.Time
	forceSend              bool

	ticks uint64
	stats Stats // Epoch, Nodes, Groups, Viewed and the gossip figures are filled on read
}

func newCore(cfg Config, name string) core {
	cfg.Node = nil
	c := core{cfg: cfg, name: name, syncEvery: uint64(4 * (cfg.FailMultiple + 1)), syncPhase: nameHash(name), hintPulled: ^uint64(0)}
	c.reset()
	return c
}

// reset is the state of an agent that never joined. Stop ends there too:
// a crashed peer stays reachable through its endpoint, ORB and servant,
// and must not pin a directory replica and MRM view that long.
func (c *core) reset() {
	c.joined = false
	c.dir = NewDirectory()
	c.view = make(map[string]*memberState)
	c.summaries = make(map[int]*groupSummary)
	c.expectedGroups = make(map[int]time.Time)
	c.sent = make(map[string]uint64)
	c.peerEpochs = make(map[string]*epochStreak)
	c.lastSent, c.prevSent = nil, nil
}

// enter starts the protocol on dir: this node's first directory.
func (c *core) enter(dir *Directory) { c.dir, c.joined = dir, true }

// forget drops what this MRM holds about a node that left the directory.
func (c *core) forget(name string) {
	delete(c.view, name)
	delete(c.sent, name)
	delete(c.peerEpochs, name)
}

// heard reports whether st was heard from within the failure timeout:
// one rule for leadership, suspicion and every view read.
func (c *core) heard(st *memberState, now time.Time) bool {
	return st.lastSeen.After(now.Add(-c.cfg.failTimeout()))
}

// tick is one UpdateInterval's duties, given the node's report and
// offers. Everything it returns is a queue push or a worker kick: no RPC
// runs on the tick.
func (c *core) tick(now time.Time, r node.Report, offers []*node.Offer) []action {
	if !c.joined {
		return nil
	}
	c.ticks++
	var acts []action
	// A node absent from its own directory applied a delta (or adopted a
	// snapshot) that expelled it: every duty but anti-entropy is
	// suspended.
	if group := c.dir.GroupOf(c.name); group >= 0 {
		// Both modes keep their MRM replicas current this way; Strong
		// floods changes to everyone on top (flood).
		cands := c.dir.Candidates(group, c.cfg.Replicas)
		acts = c.heartbeat(now, r, offers, cands, acts)
		// MRM replica duties. Stale view entries are not deleted here:
		// the failure timeout filters them out of every read, and detect
		// needs to see them once to escalate to the root.
		if slices.Contains(cands, c.name) && c.actingLeader(now, group) {
			acts = c.sendSummary(now, group, r, offers, acts)
			acts = append(acts, action{kind: actDetect})
		}
	}
	// Anti-entropy: periodically compare directory epochs with the root
	// (one tiny digest ping, on the pull worker) and pull a version-vector
	// patch only on divergence. This repairs dropped deltas and detects
	// false expulsion (a member the root timed out during a stall): an
	// expelled node rejoins. It keeps running on an expelled node because
	// it IS the rejoin path: without it a node whose single
	// expulsion-triggered pull failed (routine under load) would wedge
	// forever, since no deltas arrive for non-members. The real root
	// leader runs it too — its digest ping self-resolves to "same epoch"
	// for free, while a node that merely *believes* it leads (a stale
	// directory after a healed partition) reaches the actual root through
	// its own candidate list and repairs itself.
	if (c.ticks+c.syncPhase)%c.syncEvery == 0 {
		acts = append(acts, action{kind: actPull})
	}
	return acts
}

// heartbeat sends this node's update to its MRM candidates if the send
// policy wants one now.
func (c *core) heartbeat(now time.Time, r node.Report, offers []*node.Offer, cands []string, acts []action) []action {
	if full, send := c.policyDecide(now, &r); send {
		acts = c.sendUpdate(cands, &r, offers, full, acts)
	}
	return acts
}

// policyDecide applies the send policy: whether to send r at all, and
// whether this is a full (keep-alive or forced) update that must carry
// offers regardless of per-peer delta state.
func (c *core) policyDecide(now time.Time, r *node.Report) (full, send bool) {
	keepAliveFloor := c.cfg.UpdateInterval * time.Duration(c.cfg.FailMultiple) / 2
	full = c.forceSend || c.lastSent == nil || now.Sub(c.lastSentAt) >= keepAliveFloor ||
		c.lastSent.Digest != r.Digest
	switch {
	case full:
	case c.cfg.Policy == DeadBand && math.Abs(r.LoadFraction()-c.lastSent.LoadFraction()) <= epsilon:
		return false, false
	case c.cfg.Policy == Predictive && math.Abs(r.LoadFraction()-c.predict(now)) <= epsilon:
		return false, false
	}
	c.prevSent, c.prevSentAt = c.lastSent, c.lastSentAt
	c.lastSent, c.lastSentAt = r, now
	c.forceSend = false
	return full, true
}

// predict linearly extrapolates load from the last two sent reports.
func (c *core) predict(now time.Time) float64 {
	if c.prevSent == nil || !c.lastSentAt.After(c.prevSentAt) {
		return c.lastSent.LoadFraction()
	}
	dt := c.lastSentAt.Sub(c.prevSentAt).Seconds()
	slope := (c.lastSent.LoadFraction() - c.prevSent.LoadFraction()) / dt
	return c.lastSent.LoadFraction() + slope*now.Sub(c.lastSentAt).Seconds()
}

// sendUpdate queues one update to each MRM replica candidate; it carries
// the offer list only when that changed for the destination (or on
// keep-alive refresh).
func (c *core) sendUpdate(cands []string, r *node.Report, offers []*node.Offer, full bool, acts []action) []action {
	// Encode the two possible bodies once; destinations share them. Both
	// advertise this node's directory epoch so a fresher receiver can
	// push a repair hint back instead of leaving the gap to the next
	// anti-entropy round.
	epoch := c.dir.Epoch
	slim := encodeUpdate(r, nil, false, epoch)
	var fat []byte // built lazily: steady state never needs it
	for _, cand := range cands {
		body := slim
		if last, ok := c.sent[cand]; full || !ok || last != r.OffersEpoch {
			c.sent[cand] = r.OffersEpoch
			if fat == nil {
				fat = encodeUpdate(r, offers, true, epoch)
			}
			body = fat
		}
		c.stats.UpdatesSent++
		c.stats.UpdateBytes += uint64(len(body))
		acts = append(acts, action{kind: actSend, peer: cand, msg: gossipUpdate, body: body})
	}
	return acts
}

// encodeUpdate builds a gossip update body: the report, then a flag
// distinguishing "offers unchanged, keep what you have" from an actual
// (possibly empty) offer list, then the sender's directory epoch. The
// epoch is a trailing field: gossip entries are length-delimited, so
// decoders that predate it simply never read those bytes.
func encodeUpdate(r *node.Report, offers []*node.Offer, hasOffers bool, epoch uint64) []byte {
	e := cdr.NewEncoder(cdr.LittleEndian)
	r.Marshal(e)
	e.WriteBool(hasOffers)
	if hasOffers {
		node.MarshalOffers(e, offers)
	}
	e.WriteULongLong(epoch)
	return e.Bytes()
}

// flood is what Strong mode adds to Soft: this node's full update
// (report and offers) to every member, not just its MRM replicas — the
// same gossipUpdate entry, each in a gossip_batch frame of its own. It
// bypasses the outboxes because a flood is N messages per change: queued,
// every node would start an outbox and a sender per member (N² of them)
// and drop under overload exactly what this mode promises to deliver;
// sent from the one flood worker, it throttles itself.
func (c *core) flood(r node.Report, offers []*node.Offer) []action {
	if !c.joined {
		return nil
	}
	body := encodeUpdate(&r, offers, true, c.dir.Epoch)
	c.stats.Floods++
	var acts []action
	for _, name := range c.dir.Names() {
		if name != c.name {
			c.stats.UpdatesSent++
			c.stats.UpdateBytes += uint64(len(body))
			acts = append(acts, action{kind: actFlood, peer: name, msg: gossipUpdate, body: body})
		}
	}
	return acts
}

// actingLeader reports whether this node currently leads the group: it
// is the first candidate it believes alive (the replicated view doubles
// as the failure detector, so no election messages are needed).
func (c *core) actingLeader(now time.Time, group int) bool {
	for _, cand := range c.dir.Candidates(group, c.cfg.Replicas) {
		if cand == c.name {
			return true
		}
		if st, ok := c.view[cand]; ok && c.heard(st, now) {
			return false // an earlier candidate is alive
		}
	}
	return false
}

// actingRootLeader reports whether this node currently acts as the root
// MRM leader.
func (c *core) actingRootLeader(now time.Time) bool {
	rg := c.dir.RootGroup()
	return rg >= 0 && slices.Contains(c.dir.Candidates(rg, c.cfg.Replicas), c.name) && c.actingLeader(now, rg)
}

// sendSummary queues this group's aggregate to the root MRM replicas.
// The digest also advertises the leader's name and directory epoch, so a
// fresher root pushes a repair hint straight back (observePeerEpoch) —
// candidates are the relay tier, and a stale leader starves its whole
// group of deltas until repaired.
func (c *core) sendSummary(now time.Time, group int, r node.Report, offers []*node.Offer, acts []action) []action {
	alive := uint32(0)
	freeCPU := 0.0
	exports := make(map[string]bool)
	for _, m := range c.dir.Members(group) {
		st, ok := c.view[m]
		if !ok && m == c.name {
			// The leader's own state may not round-trip through its view;
			// count it directly.
			st, ok = &memberState{report: &r, offers: offers}, true
		}
		if !ok || st.report == nil {
			continue
		}
		alive++
		freeCPU += st.report.CPUFree()
		for _, of := range st.offers {
			exports[of.PortRepoID] = true
		}
	}
	exportList := slices.Collect(maps.Keys(exports))
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.WriteULong(uint32(group))
	e.WriteULong(alive)
	e.WriteDouble(freeCPU)
	e.WriteStringSeq(exportList)
	e.WriteULongLong(c.dir.Epoch) // trailing fields: older decoders stop short
	e.WriteString(c.name)
	body := e.Bytes()
	for _, rc := range c.dir.RootCandidates(c.cfg.Replicas) {
		if rc == c.name {
			c.ingestSummary(now, group, alive, freeCPU, exportList) // local shortcut
			continue
		}
		acts = append(acts, action{kind: actSend, peer: rc, msg: gossipSummary, body: body})
	}
	return acts
}

// update takes a member's gossipUpdate. An update without offers
// ("unchanged") keeps the offers last shipped. advertised is false when
// the sender predates the trailing epoch; otherwise only the reporter's
// acting group leader may answer it with a hint.
func (c *core) update(now time.Time, r *node.Report, offers []*node.Offer, hasOffers bool, epoch uint64, advertised bool) []action {
	c.stats.UpdatesRecv++
	if prev, ok := c.view[r.Node]; ok && !hasOffers {
		offers = prev.offers
	}
	c.view[r.Node] = &memberState{report: r, offers: offers, lastSeen: now}
	if !advertised {
		return nil
	}
	g := c.dir.GroupOf(r.Node)
	return c.observePeerEpoch(r.Node, epoch, g >= 0 && c.actingLeader(now, g))
}

// summary takes a group leader's gossipSummary. leader is empty when the
// sender predates the trailing advertisement; otherwise a stuck group
// leader gets its repair hint from the acting root leader here.
func (c *core) summary(now time.Time, group int, alive uint32, freeCPU float64, exports []string, epoch uint64, leader string) []action {
	c.ingestSummary(now, group, alive, freeCPU, exports)
	if leader == "" {
		return nil
	}
	return c.observePeerEpoch(leader, epoch, c.actingRootLeader(now))
}

// ingestSummary stores a group leader's aggregate in the root view.
func (c *core) ingestSummary(now time.Time, group int, alive uint32, freeCPU float64, exports []string) {
	exp := make(map[string]bool, len(exports))
	for _, x := range exports {
		exp[x] = true
	}
	c.summaries[group] = &groupSummary{group: group, alive: alive, freeCPU: freeCPU, exports: exp, lastSeen: now}
}

// observePeerEpoch reacts to a peer advertising its directory epoch in
// gossip traffic — the push half of anti-entropy (DESIGN.md §13). A
// stuck peer gets a repair hint so it pulls now instead of coasting to
// its next periodic digest ping; matching epochs (the steady state)
// cost one map touch.
//
// Two dampers keep this from amplifying churn into a pull storm (the
// naive everyone-hints-on-stale version measured ~60k pulls served and
// 2.5× the control bandwidth at N=1000):
//
//   - mayHint scopes hinting to the node responsible for the peer —
//     the acting group leader for a member's update, the acting root
//     leader for a group leader's summary. Everyone still *tracks*
//     epochs (leadership can change), but only the responsible node
//     acts.
//   - stale ≠ stuck: under churn a peer advertises old epochs while
//     the deltas repairing it sit in the relay queue, so the hint
//     waits for hintStreak consecutive observations with no progress,
//     and repeats only every hintStreak thereafter.
func (c *core) observePeerEpoch(peer string, peerEpoch uint64, mayHint bool) []action {
	st := c.peerEpochs[peer]
	if st == nil {
		st = &epochStreak{}
		c.peerEpochs[peer] = st
	}
	if st.epoch == peerEpoch {
		st.streak++
	} else {
		st.epoch, st.streak = peerEpoch, 1
	}
	if !mayHint || c.dir.Entry(peer) == nil || peerEpoch >= c.dir.Epoch || st.streak%hintStreak != 0 {
		return nil
	}
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.WriteULongLong(c.dir.Epoch)
	c.stats.RepairHintsSent++
	return []action{{kind: actSend, peer: peer, msg: gossipHint, body: e.Bytes()}}
}

// hint takes a repair hint: pull if it is still ahead of this node, at
// most once per stuck episode.
func (c *core) hint(epoch uint64) []action {
	c.stats.RepairHintsRecv++
	if !c.joined || epoch <= c.dir.Epoch || c.dir.Epoch == c.hintPulled {
		return nil
	}
	c.hintPulled = c.dir.Epoch
	return []action{{kind: actPull}}
}

// deltaOutcome classifies one gossip delta against the local directory.
type deltaOutcome int

const (
	deltaStale    deltaOutcome = iota // already incorporated
	deltaApplied                      // contiguous, applied locally
	deltaSelfGone                     // applied, and it expelled this node
	deltaGap                          // non-contiguous: deltas were lost
)

// applyDelta ingests one delta and classifies it.
func (c *core) applyDelta(d *DirectoryDelta) deltaOutcome {
	switch {
	case d.To <= c.dir.Epoch:
		// Stale or duplicate (e.g. both the root and a relay reached us).
		return deltaStale
	case d.From == c.dir.Epoch:
		c.dir.Apply(d)
		c.stats.DeltasApplied++
		for _, name := range d.Removes {
			c.forget(name)
		}
		if c.dir.GroupOf(c.name) < 0 {
			return deltaSelfGone
		}
		return deltaApplied
	default:
		// Gap: deltas were dropped (queue overflow, a missed relay).
		return deltaGap
	}
}

// delta takes one directory delta from the gossip stream. raw is its
// encoded form; it aliases the inbound buffer and is copied if relayed.
func (c *core) delta(now time.Time, d *DirectoryDelta, raw []byte) []action {
	c.stats.DeltasRecv++
	switch c.applyDelta(d) {
	case deltaSelfGone, deltaGap:
		// Behind the stream, or expelled by it: reconcile with the root —
		// anti-entropy pulls exactly the missing entries, and rejoins if
		// the root confirms the expulsion. A node that left (or never
		// joined) does neither: the delta removing a leaver must not
		// bring it back.
		if !c.joined {
			return nil
		}
		return []action{{kind: actPull}}
	case deltaApplied:
		acts := c.relay(now, raw)
		for _, name := range d.Removes {
			acts = append(acts, action{kind: actDrop, peer: name})
		}
		return acts
	}
	return nil
}

// relay is the second dissemination tier: an acting group leader that
// received a delta from the root forwards it to its group's
// non-candidate members, who are outside the root's fan-out.
func (c *core) relay(now time.Time, raw []byte) []action {
	group := c.dir.GroupOf(c.name)
	members := c.dir.Members(group)
	if len(members) <= c.cfg.Replicas || !slices.Contains(members[:c.cfg.Replicas], c.name) || !c.actingLeader(now, group) {
		return nil
	}
	return c.sendTail(members, append([]byte(nil), raw...), nil)
}

// sendTail queues a delta to the members of a group beyond its MRM
// candidates.
func (c *core) sendTail(members []string, body []byte, acts []action) []action {
	for _, m := range members[min(c.cfg.Replicas, len(members)):] {
		if m != c.name {
			c.stats.DeltasSent++
			acts = append(acts, action{kind: actSend, peer: m, msg: gossipDelta, body: body})
		}
	}
	return acts
}

// join admits a node as the root leader; forward is true when this node
// is not the root leader and the join must go to the root instead.
func (c *core) join(now time.Time, en *Entry) (dir *Directory, acts []action, forward bool) {
	if !c.actingRootLeader(now) {
		return nil, nil, true
	}
	from := c.dir.Epoch
	group := c.dir.assign(en, c.cfg.GroupSize)
	acts = c.disseminate(&DirectoryDelta{From: from, To: c.dir.Epoch, Upserts: []DirUpsert{{Group: int32(group), Desc: en}}})
	return c.dir.Clone(), acts, false
}

// remove removes a departed or dead node as the root leader; forward is
// true when this node is not the root leader.
func (c *core) remove(now time.Time, name string) (acts []action, forward bool) {
	if !c.actingRootLeader(now) {
		return nil, true
	}
	from := c.dir.Epoch
	removed := c.dir.Remove(name)
	c.forget(name)
	if !removed {
		return nil, false
	}
	acts = c.disseminate(&DirectoryDelta{From: from, To: c.dir.Epoch, Removes: []string{name}})
	return append(acts, action{kind: actDrop, peer: name}), false
}

// disseminate ships one root mutation down the MRM hierarchy: the root
// gossips it to every group's MRM candidates, and each group's acting
// leader relays it to the members beyond the candidate set (relay). The
// root covers its own group directly. Fan-out at the root is therefore
// O(replicas × groups), not O(N).
func (c *core) disseminate(d *DirectoryDelta) []action {
	e := cdr.NewEncoder(cdr.LittleEndian)
	d.Marshal(e)
	body := e.Bytes()
	var acts []action
	for g := range c.dir.Groups {
		for _, cand := range c.dir.Candidates(g, c.cfg.Replicas) {
			if cand != c.name {
				c.stats.DeltasSent++
				acts = append(acts, action{kind: actSend, peer: cand, msg: gossipDelta, body: body})
			}
		}
	}
	// Leader duty for the root's own group: relay past the candidates.
	return c.sendTail(c.dir.Members(c.dir.GroupOf(c.name)), body, acts)
}

// detect is an acting leader's failure duty, both tiers in this order.
// First it escalates group members silent beyond the failure timeout
// ("the MRM can suppose a node of the group has been down after some
// time-out"); a member never heard from enters the view when this MRM
// first counts on it, so it runs on the same clock. Each suspect is
// probed before it is accused (the paper's ping/reply handshake): one
// that answers is merely slow, not dead. Then comes the root's reap
// duty, and the order is load-bearing: a replica that believes it leads
// only because the leader's last update is late probes the leader,
// refreshes it, and has stood down by the time reap asks — reaping as a
// second root writer forks the directory at one epoch, which no digest
// ping can see.
func (c *core) detect(now time.Time) []action {
	var acts []action
	for _, m := range c.dir.Members(c.dir.GroupOf(c.name)) {
		switch st := c.view[m]; {
		case m == c.name:
		case st == nil:
			c.view[m] = &memberState{lastSeen: now} // counted on from now
		case !c.heard(st, now):
			acts = append(acts, action{kind: actProbe, peer: m})
		}
	}
	return append(acts, action{kind: actReap})
}

// probed takes a probe's outcome. A suspect that answers has its
// liveness refreshed; one that does not is reported to the root, or —
// probed by reap — removed.
func (c *core) probed(now time.Time, p action, alive bool) []action {
	switch {
	case !alive && p.kind == actReapProbe:
		return []action{{kind: actRemove, peer: p.peer}}
	case !alive:
		return []action{{kind: actReport, peer: p.peer}}
	case p.kind == actProbe:
		if st, ok := c.view[p.peer]; ok {
			st.lastSeen = now
		}
	}
	return nil
}

// reported takes report_dead's outcome: a member the root accepted is
// dropped from the view, so the accusation happens once.
func (c *core) reported(name string, ok bool) {
	if ok {
		delete(c.view, name)
	}
}

// reap is the root leader's guard against a group losing every MRM
// candidate at once: members beyond the candidate set never act as
// leader, so such a group would stop sending summaries (and stop
// reporting its own deaths) forever. A group whose summaries went silent
// beyond the grace window gets its candidates probed; the unresponsive
// ones are removed, promoting the next members to candidates.
func (c *core) reap(now time.Time) []action {
	if !c.actingRootLeader(now) {
		return nil
	}
	staleCutoff := now.Add(-4 * c.cfg.failTimeout())
	own := c.dir.GroupOf(c.name)
	var acts []action
	for g := range c.dir.Groups {
		if g == own || len(c.dir.Groups[g]) == 0 {
			continue // the root's own group is covered by detect
		}
		if sum, ok := c.summaries[g]; ok && sum.lastSeen.After(staleCutoff) {
			delete(c.expectedGroups, g)
			continue
		}
		first, tracked := c.expectedGroups[g]
		switch {
		case !tracked:
			c.expectedGroups[g] = now
		case first.Before(staleCutoff):
			for _, cand := range c.dir.Candidates(g, c.cfg.Replicas) {
				acts = append(acts, action{kind: actReapProbe, peer: cand})
			}
			c.expectedGroups[g] = now // re-arm: one reap round per window
		}
	}
	return acts
}

// pinged takes the root's digest epoch. Same epoch and still a member:
// nothing to do. Otherwise pull a patch against this node's version
// vector — an expelled node (it applied the delta that removed it) can
// carry the root's exact epoch, and matching digests must not stop the
// pull that leads to its rejoin. A node that is not joined never pulls.
func (c *core) pinged(rootEpoch uint64) []action {
	if !c.joined || rootEpoch == c.dir.Epoch && c.dir.GroupOf(c.name) >= 0 {
		return nil
	}
	c.stats.AntiEntropyPulls++
	return []action{{kind: actSyncPull, vv: c.dir.VersionVector()}}
}

// patched takes a sync_pull's patch: rejoin if it leaves this node out
// (falsely expelled, or the root lost it), adopt it if it is newer, and
// fall back to the full snapshot when it did not cover a member this
// node never saw (e.g. its state predates the root's log entirely). A
// node that is not joined takes nothing from it.
func (c *core) patched(p *DirectoryPatch) []action {
	if !c.joined {
		return nil
	}
	if !slices.ContainsFunc(p.Groups, func(g []string) bool { return slices.Contains(g, c.name) }) {
		return []action{{kind: actRejoin}}
	}
	if p.Epoch <= c.dir.Epoch {
		return nil
	}
	if dir, ok := p.Rebuild(c.dir); ok {
		c.dir = dir
		return c.prune()
	}
	return []action{{kind: actSnapshot}}
}

// rejoined adopts the directory a rejoin returned and puts this node's
// first full update on the wire at once, as at Join, not a tick later.
// A rejoin that lands after Leave is dropped.
func (c *core) rejoined(now time.Time, fresh *Directory, r node.Report, offers []*node.Offer) []action {
	if !c.joined {
		return nil
	}
	c.adopt(fresh)
	c.forceSend = true
	cands := c.dir.Candidates(c.dir.GroupOf(c.name), c.cfg.Replicas)
	return c.heartbeat(now, r, offers, cands, c.prune())
}

// adopt takes a full directory if it is newer than this node's.
func (c *core) adopt(dir *Directory) {
	if dir.Epoch > c.dir.Epoch {
		c.dir = dir
	}
}

// prune forgets destinations that left the directory and has the shell
// reclaim their gossip channels.
func (c *core) prune() []action {
	for name := range c.sent {
		if c.dir.Entry(name) == nil {
			delete(c.sent, name)
		}
	}
	for name := range c.peerEpochs {
		if c.dir.Entry(name) == nil {
			delete(c.peerEpochs, name)
		}
	}
	return []action{{kind: actPrune, members: c.dir.Names()}}
}

// viewQuery answers a component query from this MRM's (or, in Strong
// mode, this node's) view.
func (c *core) viewQuery(now time.Time, portID, verReq string) []*node.Offer {
	req, err := version.ParseRequirement(verReq)
	if err != nil {
		return nil
	}
	var out []*node.Offer
	for _, st := range c.view {
		if !c.heard(st, now) {
			continue
		}
		for _, of := range st.offers {
			if offerMatches(of, portID, req) {
				// Refresh the load figure from the latest report.
				ofCopy := *of
				ofCopy.NodeLoad = st.report.LoadFraction()
				out = append(out, &ofCopy)
			}
		}
	}
	return out
}

// offerMatches reports whether of provides portID at a version req
// accepts.
func offerMatches(of *node.Offer, portID string, req version.Requirement) bool {
	if of.PortRepoID != portID {
		return false
	}
	id, err := component.ParseID(of.ComponentID)
	return err != nil || req.Matches(id.Version)
}

// exporters lists the MRM candidates of every group whose summary
// exports portID, except skipGroup: the root's query fan-out.
func (c *core) exporters(portID string, skipGroup int) [][]string {
	var groups [][]string
	for g, sum := range c.summaries {
		if g != skipGroup && sum.exports[portID] {
			groups = append(groups, c.dir.Candidates(g, c.cfg.Replicas))
		}
	}
	return groups
}
