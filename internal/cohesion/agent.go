package cohesion

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
	// MRMs hold an approximate view and time out silent nodes. An offer
	// change is pushed to the replicas and the root's summary at once.
	Soft Mode = iota
	// Strong: Soft's periodic traffic, plus every reflective change is
	// immediately flooded to every node as a full update, giving all of
	// them "perfect knowledge" — the baseline the paper argues is
	// unscalable.
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
}

// failTimeout is the silence duration after which a node is suspected
// dead.
func (c *Config) failTimeout() time.Duration {
	return c.UpdateInterval * time.Duration(c.FailMultiple)
}

// Stats are protocol-level counters for the update-suppression tests
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
	RepairHintsSent  uint64 // push hints sent to peers seen behind
	RepairHintsRecv  uint64 // push hints received (each kicks a pull)

	// What the node holds (cohesion_stats remote view).
	Epoch  uint64
	Nodes  int // directory entries
	Groups int
	Viewed int // member states in this node's MRM view
	Queues int // gossip destinations with messages waiting
}

// Marshal encodes the stats for the cohesion_stats operation, ending in
// an extension blob so future counters never break older admin tools.
func (s *Stats) Marshal(e *cdr.Encoder) {
	e.WriteULongLong(s.Epoch)
	e.WriteULong(uint32(s.Nodes))
	e.WriteULong(uint32(s.Groups))
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
	// The repair-hint counters and the held-state figures ride in the
	// extension blob: admin tools built before them still parse the
	// frame, ones built after read them out of the blob when present.
	ext := cdr.NewEncoder(cdr.LittleEndian)
	ext.WriteULongLong(s.RepairHintsSent)
	ext.WriteULongLong(s.RepairHintsRecv)
	ext.WriteULong(uint32(s.Viewed))
	ext.WriteULong(uint32(s.Queues))
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
		d = cdr.NewDecoder(ext, cdr.LittleEndian) // read64 and readN now read the blob
		read64(&s.RepairHintsSent)
		read64(&s.RepairHintsRecv)
		readN(&s.Viewed) // absent from agents built before it: reads 0
		readN(&s.Queues)
	}
	return s, nil
}

// Agent runs the cohesion protocol for one node. It is the shell around
// the core (core.go): it owns the ticker, the pull, death and flood
// workers, the gossip plane and every RPC. It feeds the core under one
// lock (locked, step) and performs the actions the core returns once
// that lock is released (run), so nothing that blocks runs under it.
type Agent struct {
	cfg  Config
	n    *node.Node
	o    *orb.ORB
	name string

	mu sync.Mutex
	c  core // guarded by mu: reached only through locked

	// ctx is the agent's lifetime: every RPC the protocol makes derives
	// from it (with a per-call timeout) and every worker ends with it, so
	// Stop cancels all.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// changeKick coalesces the node's reflective changes: many rapid
	// changes collapse into one pending run. In Soft mode the loop takes
	// it and pushes an offer change; in Strong mode the flood worker
	// takes it and floods, so a change never waits on the network.
	changeKick chan struct{}
	// pullKick coalesces anti-entropy rounds — the periodic one, a gap in
	// the delta stream, a repair hint — so a node has one in flight.
	pullKick chan struct{}
	// deathKick hands an acting leader's failure duties to a worker, so a
	// tick never waits on a suspect's probe or the root's report_dead.
	deathKick chan struct{}
	// gossip is the per-destination batching plane every periodic
	// protocol message rides.
	gossip *gossiper
}

// NewAgent creates the agent and activates its servant on the node's
// ORB; it does not start the protocol until Bootstrap or Join.
func NewAgent(cfg Config) *Agent {
	cfg.fill()
	a := &Agent{
		cfg:        cfg,
		n:          cfg.Node,
		o:          cfg.Node.ORB(),
		name:       cfg.Node.Name(),
		c:          newCore(cfg, cfg.Node.Name()),
		changeKick: make(chan struct{}, 1),
		pullKick:   make(chan struct{}, 1),
		deathKick:  make(chan struct{}, 1),
	}
	a.ctx, a.cancel = context.WithCancel(context.Background())
	a.gossip = newGossiper(a)
	a.o.Activate(node.NetworkCohesion.Key(), &agentServant{a: a})
	a.n.SetChangeListener(func() { kick(a.changeKick) })
	return a
}

// locked runs f on the core under the shell's one lock, at the current
// time. Every read of protocol state and every core input passes through
// here; f only touches the core, so nothing under the lock blocks.
func (a *Agent) locked(f func(c *core, now time.Time)) {
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	f(&a.c, now)
}

// step feeds the core one input and performs the actions it returns
// once the lock is released.
func (a *Agent) step(in func(c *core, now time.Time) []action) {
	var acts []action
	a.locked(func(c *core, now time.Time) { acts = in(c, now) })
	a.run(acts)
}

// feed is step for gossip: a stopped agent drops it, so a batch still in
// flight when Stop reset the core leaves nothing behind.
func (a *Agent) feed(in func(c *core, now time.Time) []action) {
	a.step(func(c *core, now time.Time) []action {
		if a.ctx.Err() != nil {
			return nil
		}
		return in(c, now)
	})
}

// run performs the core's actions in order on the calling goroutine: the
// tick's queue pushes and kicks on the tick, the workers' RPCs on the
// workers. An RPC's outcome goes straight back into the core, and the
// actions that returns are performed before the rest.
func (a *Agent) run(acts []action) {
	for _, act := range acts {
		switch act.kind {
		case actSend:
			a.gossip.enqueue(act.peer, act.msg, act.body)
		case actFlood:
			a.gossip.ship(act.peer, []message{{act.msg, act.body}}) // a frame of its own
		case actDrop:
			a.gossip.drop(act.peer)
		case actPrune:
			a.gossip.prune(act.members)
		case actPull:
			kick(a.pullKick)
		case actDetect:
			kick(a.deathKick)
		case actPing:
			var epoch uint64
			if a.rootRPC("ping", nil, func(d *cdr.Decoder) (err error) { epoch, err = d.ReadULongLong(); return err }) == nil {
				a.step(func(c *core, _ time.Time) []action { return c.pinged(epoch) })
			}
		case actSyncPull:
			var patch *DirectoryPatch
			if a.rootRPC("sync_pull", func(e *cdr.Encoder) { MarshalVersionVector(e, act.vv) },
				func(d *cdr.Decoder) (err error) { patch, err = UnmarshalPatch(d); return err }) == nil {
				a.step(func(c *core, _ time.Time) []action { return c.patched(patch) })
			}
		case actRejoin:
			var fresh *Directory
			// The entry cut when this node joined cuts again, unless a
			// transport attached since mints a profile ior.Cut refuses.
			if en, err := a.entry(); err == nil && a.rootRPC("join", en.Marshal, intoDirectory(&fresh)) == nil {
				r, offers := a.n.Report(), a.n.AllOffers()
				a.step(func(c *core, now time.Time) []action { return c.rejoined(now, fresh, r, offers) })
			}
		case actSnapshot:
			var dir *Directory
			if a.rootRPC("get_directory", nil, intoDirectory(&dir)) == nil {
				a.locked(func(c *core, _ time.Time) { c.adopt(dir) })
			}
		case actProbe, actReapProbe:
			alive := a.answersPing(act.peer)
			a.step(func(c *core, now time.Time) []action { return c.probed(now, act, alive) })
		case actReport:
			err := a.rootRPC("report_dead", func(e *cdr.Encoder) { e.WriteString(act.peer) }, nil)
			a.locked(func(c *core, _ time.Time) { c.reported(act.peer, err == nil) })
		case actReap:
			a.step(func(c *core, now time.Time) []action { return c.reap(now) })
		case actRemove:
			ctx, cancel := a.rpcCtx()
			_ = a.handleRemoval(ctx, act.peer)
			cancel()
		}
	}
}

// Desc mints this agent's descriptor. IORs are minted lazily so they
// carry the profiles of every transport attached by the time the agent
// joins a network.
func (a *Agent) Desc() *NodeDesc {
	return &NodeDesc{
		Name:       a.name,
		Capability: string(a.n.Resources().Profile().Capability),
		Cohesion:   a.n.Ref(node.NetworkCohesion),
		Registry:   a.n.Ref(node.ComponentRegistry),
		Acceptor:   a.n.Ref(node.ComponentAcceptor),
		Resources:  a.n.Ref(node.ResourceManager),
	}
}

// entry folds this agent's descriptor into its directory entry.
func (a *Agent) entry() (*Entry, error) { return newEntry(a.Desc()) }

// Stats snapshots the protocol counters.
func (a *Agent) Stats() Stats {
	var st Stats
	a.locked(func(c *core, _ time.Time) {
		st = c.stats
		st.Epoch, st.Nodes, st.Groups, st.Viewed = c.dir.Epoch, c.dir.Len(), len(c.dir.Groups), len(c.view)
	})
	st.GossipBatches, st.GossipBytes, st.Queues = a.gossip.batches.Load(), a.gossip.bytes.Load(), a.gossip.waiting()
	return st
}

// Stamp returns the O(1) convergence probe of the agent's directory:
// swarm tests compare (epoch, size, membership hash) across thousands
// of agents without cloning anything.
func (a *Agent) Stamp() (epoch uint64, n int, xor uint64) {
	a.locked(func(c *core, _ time.Time) { epoch, n, xor = c.dir.Stamp() })
	return epoch, n, xor
}

// Directory snapshots the agent's current view of membership.
func (a *Agent) Directory() (dir *Directory) {
	a.locked(func(c *core, _ time.Time) { dir = c.dir.Clone() })
	return dir
}

// Bootstrap makes this agent the first node of a new logical network and
// starts its protocol loop. It fails, starting nothing, when the node's
// service references have no one endpoint to enter in the directory.
func (a *Agent) Bootstrap() error {
	dir := NewDirectory()
	if _, err := dir.Assign(a.Desc(), a.cfg.GroupSize); err != nil {
		return fmt.Errorf("cohesion: bootstrap: %w", err)
	}
	a.locked(func(c *core, _ time.Time) { c.enter(dir) })
	a.start()
	return nil
}

// Join enters an existing network through any member's cohesion
// reference and starts the protocol loop.
func (a *Agent) Join(contact *ior.IOR) error {
	en, err := a.entry()
	if err != nil {
		return fmt.Errorf("cohesion: join: %w", err)
	}
	var dir *Directory
	ctx, cancel := a.rpcCtx()
	defer cancel()
	if err := a.o.NewRef(contact).InvokeContext(ctx, "join", en.Marshal, intoDirectory(&dir)); err != nil {
		return fmt.Errorf("cohesion: join: %w", err)
	}
	a.locked(func(c *core, _ time.Time) { c.enter(dir) })
	a.start()
	if a.cfg.Mode == Strong {
		a.floodReport()
	}
	return nil
}

// Leave departs gracefully: the root removes this node and broadcasts
// the new directory. The workers stop first, so no pull or rejoin of
// theirs is in flight when the leave reaches the root, and the delta
// that removes this node finds it no longer joined.
func (a *Agent) Leave() {
	var joined bool
	a.locked(func(c *core, _ time.Time) { joined, c.joined = c.joined, false })
	a.halt()
	if joined {
		// The agent's lifetime context is cancelled by now.
		ctx, cancel := context.WithTimeout(context.Background(), a.rpcTimeout())
		_ = a.callRoot(ctx, "leave", func(e *cdr.Encoder) { e.WriteString(a.name) }, nil)
		cancel()
	}
	a.locked(func(c *core, _ time.Time) { c.reset() })
}

// Stop halts the protocol loop without notifying anyone (crash
// simulation pairs this with simnet.SetDown) and releases the protocol
// state: a stopped agent reads as never joined.
func (a *Agent) Stop() {
	a.halt()
	a.locked(func(c *core, _ time.Time) { c.reset() })
}

// halt ends the workers, aborts their in-flight protocol RPCs and drains
// the gossip plane.
func (a *Agent) halt() {
	a.cancel()
	a.gossip.close()
	a.wg.Wait()
}

func (a *Agent) start() {
	a.wg.Add(3)
	changes := a.changeKick
	if a.cfg.Mode == Strong {
		changes = nil // the flood worker takes every change
		a.wg.Add(1)
		go a.kickLoop(a.changeKick, a.floodReport)
	}
	go a.loop(changes)
	go a.kickLoop(a.pullKick, a.syncDirectory)
	go a.kickLoop(a.deathKick, a.detectFailures)
}

// kickLoop is the worker behind a coalescing kick channel: it runs work
// once per pending kick, serially, until the agent stops.
func (a *Agent) kickLoop(kick <-chan struct{}, work func()) {
	defer a.wg.Done()
	for {
		select {
		case <-a.ctx.Done():
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
// milliseconds after the root admitted it — then every UpdateInterval,
// and between ticks takes the node's changes (nil in Strong mode).
func (a *Agent) loop(changes <-chan struct{}) {
	defer a.wg.Done()
	t := time.NewTicker(a.cfg.UpdateInterval)
	defer t.Stop()
	a.tick()
	for {
		select {
		case <-a.ctx.Done():
			return
		case <-t.C:
			a.tick()
		case <-changes:
			r, offers := a.n.Report(), a.n.AllOffers()
			a.step(func(c *core, now time.Time) []action { return c.changed(now, r, offers) })
		}
	}
}

// tick performs this node's periodic duties.
func (a *Agent) tick() {
	r, offers := a.n.Report(), a.n.AllOffers()
	a.step(func(c *core, now time.Time) []action { return c.tick(now, r, offers) })
}

// syncDirectory is one anti-entropy round on the pull worker: a digest
// ping to the root, then whatever the core makes of the answer — a
// version-vector pull, a rejoin, a snapshot.
func (a *Agent) syncDirectory() { a.run([]action{{kind: actPing}}) }

// detectFailures is an acting leader's failure duty on the death worker:
// a black-holed suspect holds up the next accusation, never the leader's
// own updates and summaries.
func (a *Agent) detectFailures() {
	a.step(func(c *core, now time.Time) []action { return c.detect(now) })
}

// floodReport is Strong mode's change flood, on the flood worker.
func (a *Agent) floodReport() {
	r, offers := a.n.Report(), a.n.AllOffers()
	a.step(func(c *core, _ time.Time) []action { return c.flood(r, offers) })
}

// refOf builds an invocable ref to another agent's cohesion servant,
// derived from its directory entry.
func (a *Agent) refOf(name string) (*orb.ObjectRef, bool) {
	var en *Entry
	a.locked(func(c *core, _ time.Time) { en = c.dir.Entry(name) })
	if en == nil {
		return nil, false
	}
	return a.o.NewRef(en.Ref(node.NetworkCohesion)), true
}

// rpcTimeout bounds one protocol RPC: generous against the failure
// timeout so a slow-but-alive peer is not cut off, with a 2s floor
// protecting experiments that compress UpdateInterval.
func (a *Agent) rpcTimeout() time.Duration {
	return max(4*a.cfg.failTimeout(), 2*time.Second)
}

// rpcCtx derives a per-RPC context from the agent's lifetime context.
func (a *Agent) rpcCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(a.ctx, a.rpcTimeout())
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

// rootRPC calls op on the root under a fresh per-RPC budget: under CPU
// saturation a slow ping can consume most of one budget, and the pull —
// above all the rejoin — behind it must not start with it exhausted.
func (a *Agent) rootRPC(op string, args orb.Marshaller, result orb.Unmarshaller) error {
	ctx, cancel := a.rpcCtx()
	defer cancel()
	return a.callRoot(ctx, op, args, result)
}

// callRoot invokes an operation on the first reachable root MRM replica
// under ctx.
func (a *Agent) callRoot(ctx context.Context, op string, args orb.Marshaller, result orb.Unmarshaller) error {
	var rootCands []string
	a.locked(func(c *core, _ time.Time) { rootCands = c.dir.RootCandidates(c.cfg.Replicas) })
	var lastErr error = ErrNoRoot
	for _, rc := range rootCands {
		if err := ctx.Err(); err != nil {
			return err
		}
		ref, ok := a.refOf(rc)
		if rc == a.name {
			ref, ok = a.o.NewRef(a.n.Ref(node.NetworkCohesion)), true // self-call through the ORB's collocation path
		}
		if !ok {
			continue
		}
		if lastErr = ref.InvokeContext(ctx, op, args, result); lastErr == nil {
			return nil
		}
	}
	return lastErr
}

// intoDirectory decodes a directory reply (join, get_directory) into
// *dst.
func intoDirectory(dst **Directory) orb.Unmarshaller {
	return func(d *cdr.Decoder) (err error) {
		*dst, err = UnmarshalDirectory(d)
		return err
	}
}
