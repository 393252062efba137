package cohesion

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/ior"
	"corbalc/internal/node"
	"corbalc/internal/orb"
)

// Mode selects the consistency protocol (paper §2.4.3).
type Mode int

// Consistency modes.
const (
	// Soft: periodic keep-alive updates to the group's MRM replicas;
	// MRMs hold an approximate view and time out silent nodes.
	Soft Mode = iota
	// Strong: Soft, plus every reflective change is immediately flooded
	// to every node as a full update, giving all of them "perfect
	// knowledge" — the baseline the paper argues is unscalable.
	Strong
)

// SendPolicy refines Soft updates.
type SendPolicy int

// Send policies.
const (
	// Periodic sends a full update every interval.
	Periodic SendPolicy = iota
	// DeadBand suppresses updates while the load stays within epsilon
	// of the last sent value (a keep-alive floor still applies).
	DeadBand
	// Predictive suppresses updates while a linear extrapolation of the
	// last two sent values tracks the real load within epsilon.
	Predictive
)

// epsilon is the dead-band width as a load fraction.
const epsilon = 0.05

// KeyCohesion is the agent's object key in the node's adapter.
const KeyCohesion = "node/cohesion"

// CohesionRepoID is the CORBA interface ID of the cohesion agent.
const CohesionRepoID = "IDL:corbalc/NetworkCohesion:1.0"

// Errors returned by the agent.
var (
	ErrNotJoined = errors.New("cohesion: agent has not joined a network")
	ErrNoRoot    = errors.New("cohesion: no reachable root MRM")
)

// Config assembles an Agent.
type Config struct {
	Node *node.Node
	// GroupSize is the MRM fanout G (default 8).
	GroupSize int
	// Replicas is the number of peer MRM replicas per group (default 2).
	Replicas int
	// UpdateInterval is the soft-consistency period (default 500ms).
	UpdateInterval time.Duration
	// FailMultiple times UpdateInterval gives the failure timeout
	// (default 3).
	FailMultiple int
	// Mode selects Soft or Strong consistency.
	Mode Mode
	// Policy refines Soft sending.
	Policy SendPolicy
	// AntiEntropyTicks is the digest-ping period in update ticks
	// (default 4*(FailMultiple+1)).
	AntiEntropyTicks int
}

func (c *Config) fill() {
	if c.GroupSize <= 0 {
		c.GroupSize = 8
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > c.GroupSize {
		c.Replicas = c.GroupSize
	}
	if c.UpdateInterval <= 0 {
		c.UpdateInterval = 500 * time.Millisecond
	}
	if c.FailMultiple <= 0 {
		c.FailMultiple = 3
	}
	if c.AntiEntropyTicks <= 0 {
		c.AntiEntropyTicks = 4 * (c.FailMultiple + 1)
	}
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

// Stats are protocol-level counters for the consistency experiments
// and the corbalc-admin cohesion view.
type Stats struct {
	UpdatesSent   uint64
	UpdateBytes   uint64
	UpdatesRecv   uint64
	QueriesSent   uint64
	QueriesServed uint64
	Floods        uint64

	// Delta-gossip counters (DESIGN.md §13).
	DeltasSent       uint64 // directory deltas enqueued (root + relays)
	DeltasRecv       uint64 // directory deltas received
	DeltasApplied    uint64 // deltas applied contiguously
	AntiEntropyPulls uint64 // sync_pull rounds issued on divergence
	PullsServed      uint64 // sync_pull rounds answered
	GossipBatches    uint64 // gossip_batch frames shipped
	GossipBytes      uint64 // bytes across shipped gossip frames
	VVSize           int    // current version-vector entry count
	RepairHintsSent  uint64 // push hints sent to peers seen behind
	RepairHintsRecv  uint64 // push hints received (each kicks a pull)

	// Directory snapshot (cohesion_stats remote view).
	Epoch  uint64
	Nodes  int
	Groups int
}

// Marshal encodes the stats for the cohesion_stats operation, ending in
// an extension blob so future counters never break older admin tools.
func (s *Stats) Marshal(e *cdr.Encoder) {
	e.WriteULongLong(s.Epoch)
	e.WriteULong(uint32(s.Nodes))
	e.WriteULong(uint32(s.Groups))
	e.WriteULong(uint32(s.VVSize))
	e.WriteULongLong(s.UpdatesSent)
	e.WriteULongLong(s.UpdateBytes)
	e.WriteULongLong(s.UpdatesRecv)
	e.WriteULongLong(s.QueriesSent)
	e.WriteULongLong(s.QueriesServed)
	e.WriteULongLong(s.Floods)
	e.WriteULongLong(s.DeltasSent)
	e.WriteULongLong(s.DeltasRecv)
	e.WriteULongLong(s.DeltasApplied)
	e.WriteULongLong(s.AntiEntropyPulls)
	e.WriteULongLong(s.PullsServed)
	e.WriteULongLong(s.GossipBatches)
	e.WriteULongLong(s.GossipBytes)
	// The repair-hint counters ride in the extension blob: admin tools
	// built before them still parse the frame, ones built after read
	// them out of the blob when present.
	ext := cdr.NewEncoder(cdr.LittleEndian)
	ext.WriteULongLong(s.RepairHintsSent)
	ext.WriteULongLong(s.RepairHintsRecv)
	e.WriteOctetSeq(ext.Bytes())
}

// UnmarshalStats decodes a cohesion_stats reply.
func UnmarshalStats(d *cdr.Decoder) (*Stats, error) {
	s := &Stats{}
	var err error
	if s.Epoch, err = d.ReadULongLong(); err != nil {
		return nil, err
	}
	readN := func(dst *int) {
		if err != nil {
			return
		}
		var v uint32
		if v, err = d.ReadULong(); err == nil {
			*dst = int(v)
		}
	}
	readN(&s.Nodes)
	readN(&s.Groups)
	readN(&s.VVSize)
	read64 := func(dst *uint64) {
		if err == nil {
			*dst, err = d.ReadULongLong()
		}
	}
	read64(&s.UpdatesSent)
	read64(&s.UpdateBytes)
	read64(&s.UpdatesRecv)
	read64(&s.QueriesSent)
	read64(&s.QueriesServed)
	read64(&s.Floods)
	read64(&s.DeltasSent)
	read64(&s.DeltasRecv)
	read64(&s.DeltasApplied)
	read64(&s.AntiEntropyPulls)
	read64(&s.PullsServed)
	read64(&s.GossipBatches)
	read64(&s.GossipBytes)
	if err != nil {
		return nil, err
	}
	ext, err := d.ReadOctetSeqAlias()
	if err != nil {
		return nil, err
	}
	if len(ext) >= 16 {
		ed := cdr.NewDecoder(ext, cdr.LittleEndian)
		s.RepairHintsSent, _ = ed.ReadULongLong()
		s.RepairHintsRecv, _ = ed.ReadULongLong()
	}
	return s, nil
}

// Agent runs the cohesion protocol for one node.
type Agent struct {
	cfg  Config
	n    *node.Node
	o    *orb.ORB
	name string

	mu        sync.Mutex
	dir       *Directory
	view      map[string]*memberState
	summaries map[int]*groupSummary
	// expectedGroups tracks when the root first counted on a group's
	// summaries: a group whose MRM candidates all died would otherwise go
	// silent forever, since non-candidate members never act as leader.
	expectedGroups map[int]time.Time
	// sent is the offers epoch last shipped to each MRM replica, so
	// periodic updates can omit the offer list while it is unchanged.
	sent   map[string]uint64
	joined bool
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

	// send-policy state
	lastSent   *node.Report
	prevSent   *node.Report
	lastSentAt time.Time
	prevSentAt time.Time
	forceSend  bool

	// ctx is the agent's lifetime context: every RPC the protocol makes
	// derives from it (with a per-call timeout), so Stop cancels all
	// in-flight calls.
	ctx    context.Context
	cancel context.CancelFunc

	stop  chan struct{}
	wg    sync.WaitGroup
	ticks uint64 // tick counter driving periodic anti-entropy
	// floodKick coalesces Strong-mode change floods: many rapid changes
	// collapse into one pending flood, and a single worker does the
	// sends so a change never waits on the network.
	floodKick chan struct{}
	// pullKick coalesces divergence-triggered anti-entropy pulls: a gap
	// in the delta stream schedules one pull, however many deltas
	// arrived out of order.
	pullKick chan struct{}
	// deathKick hands an acting leader's detectFailures to a worker, so a
	// tick never waits on a suspect's ping or the root's report_dead.
	deathKick chan struct{}
	// gossip is the per-destination batching plane every periodic
	// protocol message rides.
	gossip *gossiper

	updatesSent   atomic.Uint64
	updateBytes   atomic.Uint64
	updatesRecv   atomic.Uint64
	queriesSent   atomic.Uint64
	queriesServed atomic.Uint64
	floods        atomic.Uint64
	deltasSent    atomic.Uint64
	deltasRecv    atomic.Uint64
	deltasApplied atomic.Uint64
	pulls         atomic.Uint64
	pullsServed   atomic.Uint64
	hintsSent     atomic.Uint64
	hintsRecv     atomic.Uint64
}

// NewAgent creates the agent and activates its servant on the node's
// ORB; it does not start the protocol until Bootstrap or Join.
func NewAgent(cfg Config) *Agent {
	cfg.fill()
	a := &Agent{
		cfg:        cfg,
		n:          cfg.Node,
		o:          cfg.Node.ORB(),
		hintPulled: ^uint64(0),
		stop:       make(chan struct{}),
		pullKick:   make(chan struct{}, 1),
		deathKick:  make(chan struct{}, 1),
	}
	a.resetLocked()
	a.ctx, a.cancel = context.WithCancel(context.Background())
	a.gossip = newGossiper(a)
	a.name = cfg.Node.Name()
	a.o.Activate(KeyCohesion, &agentServant{a: a})
	if cfg.Mode == Strong {
		a.floodKick = make(chan struct{}, 1)
		a.n.SetChangeListener(func() { kick(a.floodKick) })
	}
	return a
}

// resetLocked is the state of an agent that never joined. Stop ends
// there too: a crashed peer stays reachable through its endpoint, ORB and
// servant, and must not pin a directory replica and MRM view that long.
func (a *Agent) resetLocked() {
	a.joined = false
	a.dir = NewDirectory()
	a.view = make(map[string]*memberState)
	a.summaries = make(map[int]*groupSummary)
	a.expectedGroups = make(map[int]time.Time)
	a.sent = make(map[string]uint64)
	a.peerEpochs = make(map[string]*epochStreak)
	a.lastSent, a.prevSent = nil, nil
}

// Desc mints this agent's directory entry. IORs are minted lazily so
// they carry the profiles of every transport attached by the time the
// agent joins a network.
func (a *Agent) Desc() *NodeDesc {
	return &NodeDesc{
		Name:       a.name,
		Capability: string(a.n.Resources().Profile().Capability),
		Cohesion:   a.o.NewIOR(CohesionRepoID, KeyCohesion),
		Registry:   a.n.RegistryIOR(),
		Acceptor:   a.n.AcceptorIOR(),
		Resources:  a.n.ResourcesIOR(),
	}
}

// CohesionIOR returns the agent's own servant reference, used as a join
// contact by other nodes.
func (a *Agent) CohesionIOR() *ior.IOR { return a.o.NewIOR(CohesionRepoID, KeyCohesion) }

// Stats snapshots the protocol counters.
func (a *Agent) Stats() Stats {
	a.mu.Lock()
	vv := len(a.dir.Versions)
	epoch := a.dir.Epoch
	nodes := len(a.dir.Nodes)
	groups := len(a.dir.Groups)
	a.mu.Unlock()
	return Stats{
		Epoch:            epoch,
		Nodes:            nodes,
		Groups:           groups,
		UpdatesSent:      a.updatesSent.Load(),
		UpdateBytes:      a.updateBytes.Load(),
		UpdatesRecv:      a.updatesRecv.Load(),
		QueriesSent:      a.queriesSent.Load(),
		QueriesServed:    a.queriesServed.Load(),
		Floods:           a.floods.Load(),
		DeltasSent:       a.deltasSent.Load(),
		DeltasRecv:       a.deltasRecv.Load(),
		DeltasApplied:    a.deltasApplied.Load(),
		AntiEntropyPulls: a.pulls.Load(),
		PullsServed:      a.pullsServed.Load(),
		GossipBatches:    a.gossip.batches.Load(),
		GossipBytes:      a.gossip.bytes.Load(),
		VVSize:           vv,
		RepairHintsSent:  a.hintsSent.Load(),
		RepairHintsRecv:  a.hintsRecv.Load(),
	}
}

// Stamp returns the O(1) convergence probe of the agent's directory:
// swarm tests compare (epoch, size, membership hash) across thousands
// of agents without cloning anything.
func (a *Agent) Stamp() (epoch uint64, n int, xor uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dir.Stamp()
}

// MemberView is one member's state as known to an MRM: its directory
// entry plus the latest soft-consistency report and offers.
type MemberView struct {
	Desc   *NodeDesc
	Report *node.Report
	Offers []*node.Offer
}

// GroupView snapshots this MRM's live member states (fresh within the
// failure timeout). The network-level load balancer consumes it.
func (a *Agent) GroupView() []MemberView {
	cutoff := time.Now().Add(-a.failTimeout())
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]MemberView, 0, len(a.view))
	for name, st := range a.view {
		if st.report == nil || st.lastSeen.Before(cutoff) {
			continue
		}
		desc, ok := a.dir.Nodes[name]
		if !ok {
			continue
		}
		out = append(out, MemberView{Desc: desc, Report: st.report, Offers: st.offers})
	}
	return out
}

// Directory snapshots the agent's current view of membership.
func (a *Agent) Directory() *Directory {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dir.Clone()
}

// Bootstrap makes this agent the first node of a new logical network and
// starts its protocol loop.
func (a *Agent) Bootstrap() {
	a.mu.Lock()
	dir := NewDirectory()
	dir.Assign(a.Desc(), a.cfg.GroupSize)
	a.dir = dir
	a.joined = true
	a.mu.Unlock()
	a.start()
}

// Join enters an existing network through any member's cohesion
// reference and starts the protocol loop.
func (a *Agent) Join(contact *ior.IOR) error {
	ref := a.o.NewRef(contact)
	var dir *Directory
	desc := a.Desc()
	ctx, cancel := a.rpcCtx()
	defer cancel()
	err := ref.InvokeContext(ctx, "join",
		func(e *cdr.Encoder) { desc.Marshal(e) },
		func(d *cdr.Decoder) error {
			var e error
			dir, e = UnmarshalDirectory(d)
			return e
		})
	if err != nil {
		return fmt.Errorf("cohesion: join: %w", err)
	}
	a.mu.Lock()
	a.dir = dir
	a.joined = true
	a.mu.Unlock()
	a.start()
	if a.cfg.Mode == Strong {
		a.floodReport()
	}
	return nil
}

// Leave departs gracefully: the root removes this node and broadcasts
// the new directory.
func (a *Agent) Leave() {
	a.mu.Lock()
	joined := a.joined
	a.joined = false
	a.mu.Unlock()
	if joined {
		ctx, cancel := a.rpcCtx()
		_ = a.callRoot(ctx, "leave", func(e *cdr.Encoder) { e.WriteString(a.name) }, nil)
		cancel()
	}
	a.Stop()
}

// Stop halts the protocol loop without notifying anyone (crash
// simulation pairs this with simnet.SetDown) and releases the protocol
// state: a stopped agent reads as never joined.
func (a *Agent) Stop() {
	a.mu.Lock()
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	a.mu.Unlock()
	a.cancel()       // aborts in-flight protocol RPCs
	a.gossip.close() // drains per-destination forwarders
	a.wg.Wait()
	a.mu.Lock()
	a.resetLocked()
	a.mu.Unlock()
}

func (a *Agent) start() {
	a.wg.Add(3)
	go a.loop()
	go a.kickLoop(a.pullKick, a.syncDirectory)
	go a.kickLoop(a.deathKick, a.detectFailures)
	if a.cfg.Mode == Strong {
		a.wg.Add(1)
		go a.kickLoop(a.floodKick, a.floodReport)
	}
}

// kickLoop is the worker behind a coalescing kick channel: it runs work
// once per pending kick, serially, until the agent stops.
func (a *Agent) kickLoop(kick <-chan struct{}, work func()) {
	defer a.wg.Done()
	for {
		select {
		case <-a.stop:
			return
		case <-kick:
			work()
		}
	}
}

// kick schedules one run of a kickLoop's work, coalescing with a run
// already pending (which will see whatever this kick was about).
func kick(ch chan<- struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// loop ticks once on start — first contact: a joiner's MRMs hear from it
// milliseconds after the root admitted it — then every UpdateInterval.
func (a *Agent) loop() {
	defer a.wg.Done()
	t := time.NewTicker(a.cfg.UpdateInterval)
	defer t.Stop()
	for {
		a.tick()
		select {
		case <-a.stop:
			return
		case <-t.C:
		}
	}
}

// tickSnapshot captures the directory state one tick needs; ok is false
// until the agent has joined.
func (a *Agent) tickSnapshot() (group int, cands, rootCands []string, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.joined {
		return 0, nil, nil, false
	}
	group = a.dir.GroupOf(a.name)
	cands = a.dir.Candidates(group, a.cfg.Replicas)
	rootCands = a.dir.RootCandidates(a.cfg.Replicas)
	return group, cands, rootCands, true
}

// tick performs this node's periodic duties.
func (a *Agent) tick() {
	group, cands, rootCands, ok := a.tickSnapshot()
	if !ok {
		return
	}
	a.ticks++
	syncDue := a.ticks%uint64(a.cfg.AntiEntropyTicks) == 0
	if group < 0 {
		// This node no longer appears in its own directory: it applied a
		// delta (or adopted a snapshot) that expelled it. Every periodic
		// duty is suspended — but anti-entropy must keep running, because
		// it IS the rejoin path. Without this a node whose single
		// expulsion-triggered pull failed (routine under load) would wedge
		// forever: no deltas arrive for non-members, and nothing else ever
		// re-kicks the pull.
		if syncDue {
			a.syncDirectory()
		}
		return
	}

	// Both modes keep their MRM replicas current this way; Strong floods
	// changes to everyone on top (floodReport).
	a.heartbeat(cands)

	// MRM replica duties. Stale view entries are not deleted here: the
	// failure timeout filters them out of every read, and reportDeaths
	// needs to see them once to escalate to the root.
	if slices.Contains(cands, a.name) && a.actingLeader(group) {
		a.sendSummary(group, rootCands)
		kick(a.deathKick)
	}

	// Anti-entropy: periodically compare directory epochs with the root
	// (one tiny digest ping) and pull a version-vector patch only on
	// divergence. This repairs dropped deltas and detects false
	// expulsion (a member the root timed out during a stall): an
	// expelled node rejoins. The real root leader runs it too — its
	// digest ping self-resolves to "same epoch" for free, while a node
	// that merely *believes* it leads (a stale directory after a healed
	// partition) reaches the actual root through its own candidate list
	// and repairs itself.
	if syncDue {
		a.syncDirectory()
	}
}

// syncDirectory compares epochs with the root (a digest ping) and
// reconciles on divergence: pull a version-vector patch carrying only
// the entries this node lacks, or rejoin if this node has been
// expelled.
func (a *Agent) syncDirectory() {
	// Each phase gets a fresh context: under CPU saturation a slow ping
	// can consume most of one rpcTimeout, and the pull — and above all
	// the rejoin — must not start with an exhausted budget.
	var rootEpoch uint64
	err := func() error {
		ctx, cancel := a.rpcCtx()
		defer cancel()
		return a.callRoot(ctx, "ping", nil, func(d *cdr.Decoder) error {
			var e error
			rootEpoch, e = d.ReadULongLong()
			return e
		})
	}()
	if err != nil {
		return
	}
	a.mu.Lock()
	same := rootEpoch == a.dir.Epoch
	expelled := a.dir.GroupOf(a.name) < 0
	vv := make(map[string]uint64, len(a.dir.Versions))
	for k, v := range a.dir.Versions {
		vv[k] = v
	}
	a.mu.Unlock()
	// An expelled node (it applied the delta that removed it) can carry
	// the root's exact epoch — matching digests must not stop the pull
	// that leads to its rejoin.
	if same && !expelled {
		return
	}

	a.pulls.Add(1)
	var patch *DirectoryPatch
	err = func() error {
		ctx, cancel := a.rpcCtx()
		defer cancel()
		return a.callRoot(ctx, "sync_pull",
			func(e *cdr.Encoder) { MarshalVersionVector(e, vv) },
			func(d *cdr.Decoder) error {
				var e error
				patch, e = UnmarshalPatch(d)
				return e
			})
	}()
	if err != nil || patch == nil {
		return
	}

	member := false
	for _, g := range patch.Groups {
		if slices.Contains(g, a.name) {
			member = true
			break
		}
	}
	if !member {
		// Falsely expelled (or the root lost us): rejoin through the
		// root and adopt the resulting directory.
		ctx, cancel := a.rpcCtx()
		defer cancel()
		fresh, err := a.rootDirectory(ctx, "join", a.Desc().Marshal)
		if err == nil && fresh != nil {
			a.mu.Lock()
			if fresh.Epoch > a.dir.Epoch {
				a.dir = fresh
			}
			a.forceSend = true
			cands := a.dir.Candidates(a.dir.GroupOf(a.name), a.cfg.Replicas)
			a.mu.Unlock()
			a.pruneGossip()
			a.heartbeat(cands) // first contact, as at Join: not a tick later
		}
		return
	}

	a.mu.Lock()
	behind := patch.Epoch > a.dir.Epoch
	adopted := false
	if behind {
		if dir, ok := patch.Rebuild(a.dir.Nodes); ok {
			a.dir = dir
			adopted = true
		}
	}
	a.mu.Unlock()
	if adopted {
		a.pruneGossip()
		return
	}
	if !behind {
		return
	}

	// The patch did not cover a member this node never saw (e.g. its
	// state predates the root's log entirely): fall back to the full
	// snapshot.
	ctx, cancel := a.rpcCtx()
	defer cancel()
	dir, err := a.rootDirectory(ctx, "get_directory", nil)
	if err == nil && dir != nil {
		a.mu.Lock()
		if dir.Epoch > a.dir.Epoch {
			a.dir = dir
		}
		a.mu.Unlock()
	}
}

// pruneGossip reclaims gossip channels for destinations that left the
// directory.
func (a *Agent) pruneGossip() {
	a.mu.Lock()
	members := make(map[string]*NodeDesc, len(a.dir.Nodes))
	for k, v := range a.dir.Nodes {
		members[k] = v
	}
	for name := range a.sent {
		if _, ok := members[name]; !ok {
			delete(a.sent, name)
		}
	}
	for name := range a.peerEpochs {
		if _, ok := members[name]; !ok {
			delete(a.peerEpochs, name)
		}
	}
	a.mu.Unlock()
	a.gossip.prune(members)
}

// heartbeat sends this node's status update to its MRM candidates if the
// send policy wants one now.
func (a *Agent) heartbeat(cands []string) {
	if report, offers, full, send := a.policyDecide(); send {
		a.sendUpdate(cands, report, offers, full)
	}
}

// policyDecide applies the send policy; it returns the report/offers to
// send, whether this is a full (keep-alive or forced) update that must
// carry offers regardless of per-peer delta state, and whether to send
// at all.
func (a *Agent) policyDecide() (report *node.Report, offers []*node.Offer, full, send bool) {
	r := a.n.Report()
	offers = a.n.AllOffers()
	now := time.Now()
	keepAliveFloor := a.cfg.UpdateInterval * time.Duration(a.cfg.FailMultiple) / 2

	a.mu.Lock()
	defer a.mu.Unlock()
	if a.forceSend || a.lastSent == nil || now.Sub(a.lastSentAt) >= keepAliveFloor ||
		a.lastSent.Digest != r.Digest {
		a.recordSentLocked(&r, now)
		return &r, offers, true, true
	}
	switch a.cfg.Policy {
	case Periodic:
		a.recordSentLocked(&r, now)
		return &r, offers, false, true
	case DeadBand:
		if math.Abs(r.LoadFraction()-a.lastSent.LoadFraction()) > epsilon {
			a.recordSentLocked(&r, now)
			return &r, offers, false, true
		}
		return nil, nil, false, false
	case Predictive:
		predicted := a.predictLocked(now)
		if math.Abs(r.LoadFraction()-predicted) > epsilon {
			a.recordSentLocked(&r, now)
			return &r, offers, false, true
		}
		return nil, nil, false, false
	}
	a.recordSentLocked(&r, now)
	return &r, offers, false, true
}

func (a *Agent) recordSentLocked(r *node.Report, now time.Time) {
	a.prevSent, a.prevSentAt = a.lastSent, a.lastSentAt
	a.lastSent, a.lastSentAt = r, now
	a.forceSend = false
}

// predictLocked linearly extrapolates load from the last two sent
// reports.
func (a *Agent) predictLocked(now time.Time) float64 {
	if a.lastSent == nil {
		return 0
	}
	if a.prevSent == nil || !a.lastSentAt.After(a.prevSentAt) {
		return a.lastSent.LoadFraction()
	}
	dt := a.lastSentAt.Sub(a.prevSentAt).Seconds()
	slope := (a.lastSent.LoadFraction() - a.prevSent.LoadFraction()) / dt
	return a.lastSent.LoadFraction() + slope*now.Sub(a.lastSentAt).Seconds()
}

// sendUpdate pushes one update to each MRM replica candidate over the
// gossip plane; it carries the offer list only when that changed for the
// destination (or on keep-alive refresh).
func (a *Agent) sendUpdate(cands []string, report *node.Report, offers []*node.Offer, full bool) {
	// Encode the two possible bodies once; destinations share them
	// (the gossip queue treats bodies as immutable). Both advertise this
	// node's directory epoch so a fresher receiver can push a repair
	// hint back instead of leaving the gap to the next anti-entropy
	// tick.
	a.mu.Lock()
	epoch := a.dir.Epoch
	a.mu.Unlock()
	slim := encodeUpdate(report, nil, false, epoch)
	var fat []byte // built lazily: steady state never needs it
	for _, cand := range cands {
		withOffers := full
		a.mu.Lock()
		if last, ok := a.sent[cand]; !ok || last != report.OffersEpoch {
			withOffers = true
		}
		if withOffers {
			a.sent[cand] = report.OffersEpoch
		}
		a.mu.Unlock()
		body := slim
		if withOffers {
			if fat == nil {
				fat = encodeUpdate(report, offers, true, epoch)
			}
			body = fat
		}
		a.updatesSent.Add(1)
		a.updateBytes.Add(uint64(len(body)))
		a.gossip.enqueue(cand, gossipUpdate, body)
	}
}

// encodeUpdate builds a gossip update body: the report, then a flag
// distinguishing "offers unchanged, keep what you have" from an actual
// (possibly empty) offer list, then the sender's directory epoch. The
// epoch is a trailing field: gossip entries are length-delimited, so
// decoders that predate it simply never read those bytes.
func encodeUpdate(report *node.Report, offers []*node.Offer, hasOffers bool, epoch uint64) []byte {
	e := cdr.NewEncoder(cdr.LittleEndian)
	report.Marshal(e)
	e.WriteBool(hasOffers)
	if hasOffers {
		node.MarshalOffers(e, offers)
	}
	e.WriteULongLong(epoch)
	return e.Bytes()
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
func (a *Agent) observePeerEpoch(peer string, peerEpoch uint64, mayHint bool) {
	a.mu.Lock()
	own := a.dir.Epoch
	_, known := a.dir.Nodes[peer]
	st := a.peerEpochs[peer]
	if st == nil {
		st = &epochStreak{}
		a.peerEpochs[peer] = st
	}
	if st.epoch == peerEpoch {
		st.streak++
	} else {
		st.epoch, st.streak = peerEpoch, 1
	}
	hint := mayHint && known && peerEpoch < own &&
		st.streak >= hintStreak && st.streak%hintStreak == 0
	a.mu.Unlock()
	if hint {
		e := cdr.NewEncoder(cdr.LittleEndian)
		e.WriteULongLong(own)
		a.hintsSent.Add(1)
		a.gossip.enqueue(peer, gossipHint, e.Bytes())
	}
}

// actingLeaderFor reports whether this agent is the acting leader of
// peer's group — the node responsible for pushing repair hints at it.
func (a *Agent) actingLeaderFor(peer string) bool {
	a.mu.Lock()
	g := a.dir.GroupOf(peer)
	a.mu.Unlock()
	return g >= 0 && a.actingLeader(g)
}

// floodReport is what Strong mode adds to Soft: this node's full update
// (report and offers) sent to every member, not just its MRM replicas —
// the same gossipUpdate entry, each in a gossip_batch frame of its own.
// It bypasses the queues because a flood is N messages per change:
// queued, every node would keep a queue and a forwarder per member (N²
// of them) and drop under overload exactly what this mode promises to
// deliver; sent from the one flood worker, it throttles itself.
func (a *Agent) floodReport() {
	a.mu.Lock()
	joined, names, epoch := a.joined, a.dir.Names(), a.dir.Epoch
	a.mu.Unlock()
	if !joined {
		return
	}
	report := a.n.Report()
	body := encodeUpdate(&report, a.n.AllOffers(), true, epoch)
	a.floods.Add(1)
	for _, name := range names {
		if name == a.name {
			continue
		}
		a.updatesSent.Add(1)
		a.updateBytes.Add(uint64(len(body)))
		a.gossip.sendNow(name, gossipUpdate, body)
	}
}

// refOf builds an invocable ref to another agent's cohesion servant.
func (a *Agent) refOf(name string) (*orb.ObjectRef, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	nd, ok := a.dir.Nodes[name]
	if !ok {
		return nil, false
	}
	return a.o.NewRef(nd.Cohesion), true
}

// failTimeout is the silence duration after which a node is suspected
// dead.
func (a *Agent) failTimeout() time.Duration {
	return a.cfg.UpdateInterval * time.Duration(a.cfg.FailMultiple)
}

// rpcTimeout bounds one protocol RPC: generous against the failure
// timeout so a slow-but-alive peer is not cut off, with a 2s floor
// protecting experiments that compress UpdateInterval.
func (a *Agent) rpcTimeout() time.Duration {
	if t := 4 * a.failTimeout(); t > 2*time.Second {
		return t
	}
	return 2 * time.Second
}

// rpcCtx derives a per-RPC context from the agent's lifetime context.
func (a *Agent) rpcCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(a.ctx, a.rpcTimeout())
}

// actingLeader reports whether this agent currently leads its group: it
// is the first candidate it believes alive (the replicated view doubles
// as the failure detector, so no election messages are needed).
func (a *Agent) actingLeader(group int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	cutoff := time.Now().Add(-a.failTimeout())
	for _, cand := range a.dir.Candidates(group, a.cfg.Replicas) {
		if cand == a.name {
			return true
		}
		if st, ok := a.view[cand]; ok && st.lastSeen.After(cutoff) {
			return false // an earlier candidate is alive
		}
	}
	return false
}

// sendSummary pushes this group's aggregate to the root MRM replicas.
// The digest also advertises the leader's name and directory epoch, so
// a fresher root pushes a repair hint straight back (observePeerEpoch)
// — candidates are the relay tier, and a stale leader starves its whole
// group of deltas until repaired.
func (a *Agent) sendSummary(group int, rootCands []string) {
	a.mu.Lock()
	epoch := a.dir.Epoch
	alive := uint32(0)
	freeCPU := 0.0
	exports := make(map[string]bool)
	members := a.dir.Members(group)
	for _, m := range members {
		st, ok := a.view[m]
		if !ok && m == a.name {
			// The leader's own state may not round-trip through its
			// view; count it directly.
			alive++
			r := a.n.Report()
			freeCPU += r.CPUFree()
			for _, of := range a.n.AllOffers() {
				exports[of.PortRepoID] = true
			}
			continue
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
	a.mu.Unlock()

	exportList := make([]string, 0, len(exports))
	for k := range exports {
		exportList = append(exportList, k)
	}
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.WriteULong(uint32(group))
	e.WriteULong(alive)
	e.WriteDouble(freeCPU)
	e.WriteStringSeq(exportList)
	e.WriteULongLong(epoch) // trailing fields: older decoders stop short
	e.WriteString(a.name)
	body := e.Bytes()
	for _, rc := range rootCands {
		if rc == a.name {
			// Local shortcut: ingest own summary directly.
			a.ingestSummary(group, alive, freeCPU, exportList)
			continue
		}
		a.gossip.enqueue(rc, gossipSummary, body)
	}
}

// detectFailures is an acting leader's failure duty, both tiers in this
// order: a replica that believes it leads only because the leader's last
// update is late pings it in reportDeaths, refreshes it, and has stood
// down by the time the root duty asks — reaping as a second root writer
// forks the directory at one epoch, which no digest ping can see.
func (a *Agent) detectFailures() {
	a.reportDeaths()
	if a.actingRootLeader() {
		a.reapSilentGroups()
	}
}

// reportDeaths escalates group members that fell silent beyond the
// failure timeout ("the MRM can suppose a node of the group has been
// down after some time-out"); a member never heard from enters the view
// when this MRM first counts on it, so it runs on the same clock. Before
// accusing, the MRM performs the paper's ping/reply handshake: a suspect
// that still answers is merely slow (a joiner on a CPU-starved host), not
// dead — its liveness is refreshed instead. Reported members are dropped
// from the view so the accusation happens once. It runs on the deathKick
// worker: a black-holed suspect holds up the next accusation, never the
// leader's own updates and summaries.
func (a *Agent) reportDeaths() {
	now := time.Now()
	cutoff := now.Add(-a.failTimeout())
	a.mu.Lock()
	var suspects []string
	for _, m := range a.dir.Members(a.dir.GroupOf(a.name)) {
		if m == a.name {
			continue
		}
		if st := a.view[m]; st == nil {
			a.view[m] = &memberState{lastSeen: now} // counted on from now
		} else if st.lastSeen.Before(cutoff) {
			suspects = append(suspects, m)
		}
	}
	a.mu.Unlock()

	for _, name := range suspects {
		if a.answersPing(name) {
			// Alive after all: refresh liveness, keep the view.
			a.mu.Lock()
			if st, ok := a.view[name]; ok {
				st.lastSeen = time.Now()
			}
			a.mu.Unlock()
			continue
		}
		ctx, cancel := a.rpcCtx()
		err := a.callRoot(ctx, "report_dead", func(e *cdr.Encoder) { e.WriteString(name) }, nil)
		cancel()
		if err == nil {
			a.mu.Lock()
			delete(a.view, name)
			a.mu.Unlock()
		}
	}
}

// answersPing reports whether a member answers a direct ping within one
// RPC budget.
func (a *Agent) answersPing(name string) bool {
	ref, ok := a.refOf(name)
	if !ok {
		return false
	}
	ctx, cancel := a.rpcCtx()
	defer cancel()
	return ref.InvokeContext(ctx, "ping", nil, func(d *cdr.Decoder) error {
		_, e := d.ReadULongLong()
		return e
	}) == nil
}

// reapSilentGroups is the root leader's guard against a group losing
// every MRM candidate at once: members beyond the candidate set never
// act as leader, so such a group would stop sending summaries (and stop
// reporting its own deaths) forever. A group whose summaries went
// silent beyond the grace window gets its candidates pinged directly;
// the unresponsive ones are removed, promoting the next members to
// candidates.
func (a *Agent) reapSilentGroups() {
	now := time.Now()
	staleCutoff := now.Add(-4 * a.failTimeout())
	a.mu.Lock()
	own := a.dir.GroupOf(a.name)
	var suspects []string
	for g := range a.dir.Groups {
		if g == own || len(a.dir.Groups[g]) == 0 {
			// The root's own group is covered by its reportDeaths duty.
			continue
		}
		if sum, ok := a.summaries[g]; ok && sum.lastSeen.After(staleCutoff) {
			delete(a.expectedGroups, g)
			continue
		}
		first, tracked := a.expectedGroups[g]
		switch {
		case !tracked:
			a.expectedGroups[g] = now
		case first.Before(staleCutoff):
			suspects = append(suspects, a.dir.Candidates(g, a.cfg.Replicas)...)
			a.expectedGroups[g] = now // re-arm: one reap round per window
		}
	}
	a.mu.Unlock()

	for _, name := range suspects {
		if a.answersPing(name) {
			continue // alive: let it resume its summary duty
		}
		ctx, cancel := a.rpcCtx()
		_ = a.handleRemoval(ctx, name)
		cancel()
	}
}

// rootDirectory invokes a directory-returning operation (join,
// get_directory) on the root.
func (a *Agent) rootDirectory(ctx context.Context, op string, args orb.Marshaller) (*Directory, error) {
	var dir *Directory
	err := a.callRoot(ctx, op, args, func(d *cdr.Decoder) error {
		var e error
		dir, e = UnmarshalDirectory(d)
		return e
	})
	return dir, err
}

// callRoot invokes an operation on the first reachable root MRM replica
// under ctx.
func (a *Agent) callRoot(ctx context.Context, op string, args orb.Marshaller, result orb.Unmarshaller) error {
	a.mu.Lock()
	rootCands := a.dir.RootCandidates(a.cfg.Replicas)
	a.mu.Unlock()
	var lastErr error = ErrNoRoot
	for _, rc := range rootCands {
		if err := ctx.Err(); err != nil {
			return err
		}
		if rc == a.name {
			// Self-call through the ORB's collocation path.
			ref := a.o.NewRef(a.CohesionIOR())
			if err := ref.InvokeContext(ctx, op, args, result); err == nil {
				return nil
			} else {
				lastErr = err
			}
			continue
		}
		ref, ok := a.refOf(rc)
		if !ok {
			continue
		}
		if err := ref.InvokeContext(ctx, op, args, result); err == nil {
			return nil
		} else {
			lastErr = err
		}
	}
	return lastErr
}
