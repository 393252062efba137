package cohesion

import (
	"context"
	"slices"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/node"
	"corbalc/internal/orb"
	"corbalc/internal/version"
)

// agentServant is the CORBA face of the cohesion agent: the Network
// Cohesion interface of Fig. 1.
type agentServant struct{ a *Agent }

func (s *agentServant) RepositoryID() string { return CohesionRepoID }

// Invoke implements orb.Servant for callers without a context.
func (s *agentServant) Invoke(op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	return s.InvokeContext(context.Background(), op, args, reply)
}

// InvokeContext implements orb.ContextServant: forwarded root calls run
// under the inbound request's context, so a caller's deadline bounds the
// whole forwarding chain.
func (s *agentServant) InvokeContext(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	a := s.a
	switch op {
	case "ping":
		a.mu.Lock()
		epoch := a.dir.Epoch
		a.mu.Unlock()
		reply.WriteULongLong(epoch)
		return nil

	case "join":
		desc, err := UnmarshalNodeDesc(args)
		if err != nil {
			return orb.Marshal()
		}
		dir, err := a.handleJoin(ctx, desc)
		if err != nil {
			return joinExc(err)
		}
		dir.Marshal(reply)
		return nil

	case "leave", "report_dead":
		name, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		if err := a.handleRemoval(ctx, name); err != nil {
			return joinExc(err)
		}
		return nil

	case "get_directory":
		a.mu.Lock()
		dir := a.dir.Clone()
		a.mu.Unlock()
		dir.Marshal(reply)
		return nil

	case "mrm_query":
		portID, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		verReq, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		a.queriesServed.Add(1)
		offers := a.viewQuery(portID, verReq)
		node.MarshalOffers(reply, offers)
		return nil

	case "gossip_batch":
		n, err := args.ReadULong()
		if err != nil {
			return orb.Marshal()
		}
		for i := uint32(0); i < n; i++ {
			kind, err := args.ReadOctet()
			if err != nil {
				return orb.Marshal()
			}
			body, err := args.ReadOctetSeqAlias()
			if err != nil {
				return orb.Marshal()
			}
			s.dispatchGossip(kind, body)
		}
		return nil

	case "sync_pull":
		vv, err := UnmarshalVersionVector(args)
		if err != nil {
			return orb.Marshal()
		}
		a.pullsServed.Add(1)
		a.mu.Lock()
		patch := a.dir.BuildPatch(vv)
		a.mu.Unlock()
		patch.Marshal(reply)
		return nil

	case "cohesion_stats":
		st := a.Stats()
		st.Marshal(reply)
		return nil

	case "root_query":
		portID, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		verReq, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		skipGroup, err := args.ReadLong()
		if err != nil {
			return orb.Marshal()
		}
		a.queriesServed.Add(1)
		offers := a.rootQuery(ctx, portID, verReq, int(skipGroup))
		node.MarshalOffers(reply, offers)
		return nil
	}
	return orb.BadOperation()
}

// dispatchGossip decodes and routes one entry of a gossip_batch frame.
// body aliases the inbound request buffer: handlers that retain bytes
// past this call (delta relay) copy first. Unknown kinds are skipped so
// newer senders interoperate with older receivers; malformed entries are
// dropped — anti-entropy repairs whatever they carried.
func (s *agentServant) dispatchGossip(kind byte, body []byte) {
	a := s.a
	d := cdr.NewDecoder(body, cdr.LittleEndian)
	switch kind {
	case gossipUpdate:
		report, err := node.UnmarshalReport(d)
		if err != nil {
			return
		}
		hasOffers, err := d.ReadBool()
		if err != nil {
			return
		}
		var offers []*node.Offer
		if hasOffers {
			if offers, err = node.UnmarshalOffers(d); err != nil {
				return
			}
		}
		a.ingestUpdate(report, offers, hasOffers)
		// Trailing epoch advertisement (absent in older senders); only
		// the reporter's acting group leader may answer with a hint.
		if epoch, err := d.ReadULongLong(); err == nil {
			a.observePeerEpoch(report.Node, epoch, a.actingLeaderFor(report.Node))
		}
	case gossipSummary:
		group, err := d.ReadULong()
		if err != nil {
			return
		}
		alive, err := d.ReadULong()
		if err != nil {
			return
		}
		freeCPU, err := d.ReadDouble()
		if err != nil {
			return
		}
		exports, err := d.ReadStringSeq()
		if err != nil {
			return
		}
		a.ingestSummary(int(group), alive, freeCPU, exports)
		// Trailing leader advertisement (absent in older senders): a
		// stuck group leader gets its repair hint from the acting root
		// leader here.
		if epoch, err := d.ReadULongLong(); err == nil {
			if leader, err := d.ReadString(); err == nil {
				a.observePeerEpoch(leader, epoch, a.actingRootLeader())
			}
		}
	case gossipDelta:
		delta, err := UnmarshalDelta(d)
		if err != nil {
			return
		}
		a.handleDelta(delta, body)
	case gossipHint:
		epoch, err := d.ReadULongLong()
		if err != nil {
			return
		}
		a.hintsRecv.Add(1)
		a.mu.Lock()
		behind := epoch > a.dir.Epoch && a.dir.Epoch != a.hintPulled
		if behind {
			a.hintPulled = a.dir.Epoch
		}
		a.mu.Unlock()
		if behind {
			kick(a.pullKick)
		}
	}
}

func joinExc(err error) error {
	return &orb.UserException{
		ID:      "IDL:corbalc/NetworkCohesion/Refused:1.0",
		Payload: func(e *cdr.Encoder) { e.WriteString(err.Error()) },
	}
}

// actingRootLeader reports whether this agent currently acts as the root
// MRM leader.
func (a *Agent) actingRootLeader() bool {
	a.mu.Lock()
	rg := a.dir.RootGroup()
	inRoot := rg >= 0 && slices.Contains(a.dir.Candidates(rg, a.cfg.Replicas), a.name)
	a.mu.Unlock()
	return inRoot && a.actingLeader(rg)
}

// handleJoin admits a node: executed at the root leader, forwarded
// otherwise.
func (a *Agent) handleJoin(ctx context.Context, desc *NodeDesc) (*Directory, error) {
	if a.actingRootLeader() {
		a.mu.Lock()
		from := a.dir.Epoch
		group := a.dir.Assign(desc, a.cfg.GroupSize)
		delta := &DirectoryDelta{
			From: from,
			To:   a.dir.Epoch,
			Upserts: []DirUpsert{{
				Group:   int32(group),
				Version: a.dir.Versions[desc.Name],
				Desc:    desc,
			}},
		}
		dir := a.dir.Clone()
		a.mu.Unlock()
		a.disseminateDelta(dir, delta)
		return dir, nil
	}
	return a.rootDirectory(ctx, "join", desc.Marshal) // forward to the root
}

// handleRemoval removes a departed or dead node: executed at the root
// leader, forwarded otherwise.
func (a *Agent) handleRemoval(ctx context.Context, name string) error {
	if a.actingRootLeader() {
		a.mu.Lock()
		from := a.dir.Epoch
		removed := a.dir.Remove(name)
		delta := &DirectoryDelta{From: from, To: a.dir.Epoch, Removes: []string{name}}
		dir := a.dir.Clone()
		delete(a.view, name)
		delete(a.sent, name)
		delete(a.peerEpochs, name)
		a.mu.Unlock()
		if removed {
			a.disseminateDelta(dir, delta)
			a.gossip.drop(name)
		}
		return nil
	}
	return a.callRoot(ctx, "report_dead", func(e *cdr.Encoder) { e.WriteString(name) }, nil)
}

// disseminateDelta ships one root mutation down the MRM hierarchy: the
// root gossips it to every group's MRM candidates, and each group's
// acting leader relays it to the members beyond the candidate set
// (relayDelta). The root covers its own group directly. Fan-out at the
// root is therefore O(replicas × groups), not O(N).
func (a *Agent) disseminateDelta(dir *Directory, delta *DirectoryDelta) {
	e := cdr.NewEncoder(cdr.LittleEndian)
	delta.Marshal(e)
	body := e.Bytes()
	own := dir.GroupOf(a.name)
	for g := range dir.Groups {
		for _, cand := range dir.Candidates(g, a.cfg.Replicas) {
			if cand == a.name {
				continue
			}
			a.deltasSent.Add(1)
			a.gossip.enqueue(cand, gossipDelta, body)
		}
	}
	// Leader duty for the root's own group: relay past the candidates.
	if own >= 0 {
		members := dir.Members(own)
		if len(members) > a.cfg.Replicas {
			for _, m := range members[a.cfg.Replicas:] {
				if m == a.name {
					continue
				}
				a.deltasSent.Add(1)
				a.gossip.enqueue(m, gossipDelta, body)
			}
		}
	}
}

// relayDelta is the second dissemination tier: an acting group leader
// that received a delta from the root forwards it to its group's
// non-candidate members, who are outside the root's fan-out.
func (a *Agent) relayDelta(dir *Directory, body []byte) {
	group := dir.GroupOf(a.name)
	if group < 0 || !slices.Contains(dir.Candidates(group, a.cfg.Replicas), a.name) || !a.actingLeader(group) {
		return
	}
	members := dir.Members(group)
	if len(members) <= a.cfg.Replicas {
		return
	}
	for _, m := range members[a.cfg.Replicas:] {
		if m == a.name {
			continue
		}
		a.deltasSent.Add(1)
		a.gossip.enqueue(m, gossipDelta, body)
	}
}

// deltaOutcome classifies one gossip delta against the local directory.
type deltaOutcome int

const (
	deltaStale    deltaOutcome = iota // already incorporated
	deltaApplied                      // contiguous, applied locally
	deltaSelfGone                     // applied, and it expelled this node
	deltaGap                          // non-contiguous: deltas were lost
)

// applyDelta ingests one delta under the lock and reports what to do
// next; on deltaApplied, dir is the post-apply clone to relay from.
func (a *Agent) applyDelta(delta *DirectoryDelta) (deltaOutcome, *Directory) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case delta.To <= a.dir.Epoch:
		// Stale or duplicate (e.g. both the root and a relay reached us).
		return deltaStale, nil
	case delta.From == a.dir.Epoch:
		a.dir.Apply(delta)
		a.deltasApplied.Add(1)
		for _, name := range delta.Removes {
			delete(a.view, name)
			delete(a.sent, name)
			delete(a.peerEpochs, name)
		}
		if a.dir.GroupOf(a.name) < 0 {
			return deltaSelfGone, nil
		}
		return deltaApplied, a.dir.Clone()
	default:
		// Gap: deltas were dropped (queue overflow, a missed relay).
		return deltaGap, nil
	}
}

// handleDelta ingests one directory delta from the gossip stream. raw
// is this frame entry's encoded form, copied if the delta must be
// relayed (the inbound buffer is transport-owned).
func (a *Agent) handleDelta(delta *DirectoryDelta, raw []byte) {
	a.deltasRecv.Add(1)
	switch outcome, dir := a.applyDelta(delta); outcome {
	case deltaSelfGone, deltaGap:
		// Behind the stream, or expelled by it: reconcile with the root
		// — anti-entropy pulls exactly the missing entries, and rejoins
		// if the root confirms the expulsion.
		kick(a.pullKick)
	case deltaApplied:
		body := append([]byte(nil), raw...)
		a.relayDelta(dir, body)
		for _, name := range delta.Removes {
			a.gossip.drop(name)
		}
	}
}

// ingestUpdate stores a member's report in this MRM's view; an update
// without offers ("unchanged") keeps the offers last shipped.
func (a *Agent) ingestUpdate(report *node.Report, offers []*node.Offer, hasOffers bool) {
	a.updatesRecv.Add(1)
	a.mu.Lock()
	defer a.mu.Unlock()
	if !hasOffers {
		if prev, ok := a.view[report.Node]; ok {
			offers = prev.offers
		}
	}
	a.view[report.Node] = &memberState{report: report, offers: offers, lastSeen: time.Now()}
}

// ingestSummary stores a group leader's aggregate in the root view.
func (a *Agent) ingestSummary(group int, alive uint32, freeCPU float64, exports []string) {
	exp := make(map[string]bool, len(exports))
	for _, x := range exports {
		exp[x] = true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.summaries[group] = &groupSummary{
		group: group, alive: alive, freeCPU: freeCPU, exports: exp, lastSeen: time.Now(),
	}
}

// viewQuery answers a component query from this MRM's (or, in Strong
// mode, this node's) view.
func (a *Agent) viewQuery(portID, verReq string) []*node.Offer {
	req, err := version.ParseRequirement(verReq)
	if err != nil {
		return nil
	}
	cutoff := time.Now().Add(-a.failTimeout())
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []*node.Offer
	for _, st := range a.view {
		if st.lastSeen.Before(cutoff) {
			continue
		}
		for _, of := range st.offers {
			if of.PortRepoID != portID {
				continue
			}
			if id, err := component.ParseID(of.ComponentID); err == nil && !req.Matches(id.Version) {
				continue
			}
			// Refresh the load figure from the latest report.
			ofCopy := *of
			ofCopy.NodeLoad = st.report.LoadFraction()
			out = append(out, &ofCopy)
		}
	}
	return out
}

// rootQuery resolves a query at the root: the summaries prune the fan-out
// to groups that actually export the port, exploiting the hierarchy. The
// candidate lists are copied under the lock: deltas mutate a.dir in place.
func (a *Agent) rootQuery(ctx context.Context, portID, verReq string, skipGroup int) []*node.Offer {
	a.mu.Lock()
	var groups [][]string
	for g, sum := range a.summaries {
		if g != skipGroup && sum.exports[portID] {
			groups = append(groups, a.dir.Candidates(g, a.cfg.Replicas))
		}
	}
	a.mu.Unlock()

	var out []*node.Offer
	for _, cands := range groups {
		for _, cand := range cands {
			if cand == a.name {
				out = append(out, a.viewQuery(portID, verReq)...)
				break
			}
			ref, ok := a.refOf(cand)
			if !ok {
				continue
			}
			var offers []*node.Offer
			a.queriesSent.Add(1)
			err := ref.InvokeContext(ctx, "mrm_query",
				func(e *cdr.Encoder) { e.WriteString(portID); e.WriteString(verReq) },
				func(d *cdr.Decoder) error {
					var err error
					offers, err = node.UnmarshalOffers(d)
					return err
				})
			if err == nil {
				out = append(out, offers...)
				break
			}
		}
	}
	return out
}

// groupSnapshot captures this node's group index and its MRM replica
// candidates, or ErrNotJoined.
func (a *Agent) groupSnapshot() (group int, cands []string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.joined {
		return 0, nil, ErrNotJoined
	}
	group = a.dir.GroupOf(a.name)
	return group, a.dir.Candidates(group, a.cfg.Replicas), nil
}

// dirClone snapshots the whole directory, or ErrNotJoined.
func (a *Agent) dirClone() (*Directory, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.joined {
		return nil, ErrNotJoined
	}
	return a.dir.Clone(), nil
}

// Query resolves a component query through the hierarchy: own group's
// MRM first ("this reduces network load and exploits locality"), then
// the root, which fans out only to groups whose summaries export the
// port. In Strong mode every node has perfect knowledge, so the answer
// is local.
func (a *Agent) Query(ctx context.Context, portID, verReq string) ([]*node.Offer, error) {
	group, cands, err := a.groupSnapshot()
	if err != nil {
		return nil, err
	}

	if a.cfg.Mode == Strong {
		offers := a.viewQuery(portID, verReq)
		offers = append(offers, a.localOffers(portID, verReq)...)
		return dedupOffers(offers), nil
	}

	// Level 0: own group MRM replicas in priority order.
	var lastErr error
	for _, cand := range cands {
		var offers []*node.Offer
		var err error
		if cand == a.name {
			offers = a.viewQuery(portID, verReq)
		} else {
			ref, ok := a.refOf(cand)
			if !ok {
				continue
			}
			a.queriesSent.Add(1)
			err = ref.InvokeContext(ctx, "mrm_query",
				func(e *cdr.Encoder) { e.WriteString(portID); e.WriteString(verReq) },
				func(d *cdr.Decoder) error {
					var e error
					offers, e = node.UnmarshalOffers(d)
					return e
				})
		}
		if err != nil {
			lastErr = err
			continue
		}
		if len(offers) > 0 {
			return offers, nil
		}
		break // MRM reachable but no local match: climb.
	}

	// Level 1: the root fans out to exporting groups.
	var offers []*node.Offer
	a.queriesSent.Add(1)
	err = a.callRoot(ctx, "root_query",
		func(e *cdr.Encoder) {
			e.WriteString(portID)
			e.WriteString(verReq)
			e.WriteLong(int32(group))
		},
		func(d *cdr.Decoder) error {
			var e error
			offers, e = node.UnmarshalOffers(d)
			return e
		})
	if err != nil {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, err
	}
	return offers, nil
}

// QueryAll resolves a query exhaustively: local group offers plus every
// other exporting group via the root — for aggregated/data-parallel
// computations that want *all* providers, not the locally best one.
func (a *Agent) QueryAll(ctx context.Context, portID, verReq string) ([]*node.Offer, error) {
	group, cands, err := a.groupSnapshot()
	if err != nil {
		return nil, err
	}

	if a.cfg.Mode == Strong {
		offers := a.viewQuery(portID, verReq)
		offers = append(offers, a.localOffers(portID, verReq)...)
		return dedupOffers(offers), nil
	}

	var out []*node.Offer
	for _, cand := range cands {
		var offers []*node.Offer
		var err error
		if cand == a.name {
			offers = a.viewQuery(portID, verReq)
		} else {
			ref, ok := a.refOf(cand)
			if !ok {
				continue
			}
			a.queriesSent.Add(1)
			err = ref.InvokeContext(ctx, "mrm_query",
				func(e *cdr.Encoder) { e.WriteString(portID); e.WriteString(verReq) },
				func(d *cdr.Decoder) error {
					var e error
					offers, e = node.UnmarshalOffers(d)
					return e
				})
		}
		if err == nil {
			out = append(out, offers...)
			break
		}
	}
	var rootOffers []*node.Offer
	a.queriesSent.Add(1)
	err = a.callRoot(ctx, "root_query",
		func(e *cdr.Encoder) {
			e.WriteString(portID)
			e.WriteString(verReq)
			e.WriteLong(int32(group))
		},
		func(d *cdr.Decoder) error {
			var e error
			rootOffers, e = node.UnmarshalOffers(d)
			return e
		})
	if err == nil {
		out = append(out, rootOffers...)
	} else if len(out) == 0 {
		return nil, err
	}
	return dedupOffers(out), nil
}

// localOffers lists this node's own matching offers (Strong-mode views
// exclude self since agents do not flood to themselves).
func (a *Agent) localOffers(portID, verReq string) []*node.Offer {
	req, err := version.ParseRequirement(verReq)
	if err != nil {
		return nil
	}
	var out []*node.Offer
	for _, of := range a.n.AllOffers() {
		if of.PortRepoID != portID {
			continue
		}
		if id, err := component.ParseID(of.ComponentID); err == nil && !req.Matches(id.Version) {
			continue
		}
		out = append(out, of)
	}
	return out
}

// QueryFlat is the non-hierarchical baseline: ask every node's Component
// Registry directly (E4 compares its message count against Query's).
func (a *Agent) QueryFlat(ctx context.Context, portID, verReq string) ([]*node.Offer, error) {
	dir, err := a.dirClone()
	if err != nil {
		return nil, err
	}
	var out []*node.Offer
	for name, nd := range dir.Nodes {
		if name == a.name {
			out = append(out, a.localOffers(portID, verReq)...)
			continue
		}
		ref := a.o.NewRef(nd.Registry)
		var offers []*node.Offer
		a.queriesSent.Add(1)
		err := ref.InvokeContext(ctx, "query",
			func(e *cdr.Encoder) { e.WriteString(portID); e.WriteString(verReq) },
			func(d *cdr.Decoder) error {
				var e error
				offers, e = node.UnmarshalOffers(d)
				return e
			})
		if err == nil {
			out = append(out, offers...)
		}
	}
	return out, nil
}

// dedupOffers removes duplicate (node, component, port) offers.
func dedupOffers(offers []*node.Offer) []*node.Offer {
	seen := make(map[string]bool, len(offers))
	out := offers[:0]
	for _, of := range offers {
		key := of.Node + "|" + of.ComponentID + "|" + of.Port
		if !seen[key] {
			seen[key] = true
			out = append(out, of)
		}
	}
	return out
}
