package cohesion

import (
	"cmp"
	"context"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/node"
	"corbalc/internal/orb"
	"corbalc/internal/version"
)

// agentServant is the CORBA face of the cohesion agent: the Network
// Cohesion interface of Fig. 1.
type agentServant struct{ a *Agent }

func (s *agentServant) RepositoryID() string { return node.NetworkCohesion.RepoID() }

// InvokeContext implements orb.Servant: forwarded root calls run
// under the inbound request's context, so a caller's deadline bounds the
// whole forwarding chain.
func (s *agentServant) InvokeContext(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	a := s.a
	switch op {
	case "ping":
		a.locked(func(c *core, _ time.Time) { reply.WriteULongLong(c.dir.Epoch) })
		return nil

	case "join":
		en, err := unmarshalEntry(args)
		if err != nil {
			return orb.Marshal()
		}
		dir, err := a.handleJoin(ctx, en)
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
		a.locked(func(c *core, _ time.Time) { c.dir.Marshal(reply) })
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
		a.locked(func(c *core, now time.Time) {
			c.stats.QueriesServed++
			node.MarshalOffers(reply, c.viewQuery(now, portID, verReq))
		})
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
		a.locked(func(c *core, _ time.Time) {
			c.stats.PullsServed++
			c.dir.BuildPatch(vv).Marshal(reply)
		})
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
		a.locked(func(c *core, _ time.Time) { c.stats.QueriesServed++ })
		node.MarshalOffers(reply, a.rootQuery(ctx, portID, verReq, int(skipGroup)))
		return nil
	}
	return orb.BadOperation()
}

// dispatchGossip decodes one entry of a gossip_batch frame and feeds it
// to the core. body aliases the inbound request buffer: the core copies
// what it keeps past the call (a relayed delta). Unknown kinds are
// skipped so newer senders interoperate with older receivers; malformed
// entries are dropped — anti-entropy repairs whatever they carried.
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
		// Trailing epoch advertisement, absent in older senders.
		epoch, err := d.ReadULongLong()
		a.step(func(c *core, now time.Time) []action {
			return c.update(now, report, offers, hasOffers, epoch, err == nil)
		})
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
		// Trailing leader advertisement, absent in older senders.
		var leader string
		epoch, err := d.ReadULongLong()
		if err == nil {
			leader, _ = d.ReadString()
		}
		a.step(func(c *core, now time.Time) []action {
			return c.summary(now, int(group), alive, freeCPU, exports, epoch, leader)
		})
	case gossipDelta:
		delta, err := UnmarshalDelta(d)
		if err != nil {
			return
		}
		a.step(func(c *core, now time.Time) []action { return c.delta(now, delta, body) })
	case gossipHint:
		epoch, err := d.ReadULongLong()
		if err != nil {
			return
		}
		a.step(func(c *core, _ time.Time) []action { return c.hint(epoch) })
	}
}

func joinExc(err error) error {
	return &orb.UserException{
		ID:      "IDL:corbalc/NetworkCohesion/Refused:1.0",
		Payload: func(e *cdr.Encoder) { e.WriteString(err.Error()) },
	}
}

// handleJoin admits a node: executed at the root leader, forwarded
// otherwise.
func (a *Agent) handleJoin(ctx context.Context, en *Entry) (dir *Directory, err error) {
	forward := false
	a.step(func(c *core, now time.Time) (acts []action) {
		dir, acts, forward = c.join(now, en)
		return acts
	})
	if forward {
		err = a.callRoot(ctx, "join", en.Marshal, intoDirectory(&dir))
	}
	return dir, err
}

// handleRemoval removes a departed or dead node: executed at the root
// leader, forwarded otherwise.
func (a *Agent) handleRemoval(ctx context.Context, name string) error {
	forward := false
	a.step(func(c *core, now time.Time) (acts []action) {
		acts, forward = c.remove(now, name)
		return acts
	})
	if !forward {
		return nil
	}
	return a.callRoot(ctx, "report_dead", func(e *cdr.Encoder) { e.WriteString(name) }, nil)
}

// viewQuery answers a component query from this node's own view.
func (a *Agent) viewQuery(portID, verReq string) (offers []*node.Offer) {
	a.locked(func(c *core, now time.Time) { offers = c.viewQuery(now, portID, verReq) })
	return offers
}

// askGroup asks a group's MRM replicas in priority order (this node's
// own view locally) and returns the first answer; err is the last
// failure before it.
func (a *Agent) askGroup(ctx context.Context, cands []string, portID, verReq string) (offers []*node.Offer, err error) {
	for _, cand := range cands {
		if cand == a.name {
			return a.viewQuery(portID, verReq), err
		}
		ref, ok := a.refOf(cand)
		if !ok {
			continue
		}
		a.locked(func(c *core, _ time.Time) { c.stats.QueriesSent++ })
		callErr := ref.InvokeContext(ctx, "mrm_query",
			func(e *cdr.Encoder) { e.WriteString(portID); e.WriteString(verReq) }, intoOffers(&offers))
		if callErr == nil {
			return offers, err
		}
		err = callErr
	}
	return nil, err
}

// askRoot has the root resolve a query across every group but this
// node's own.
func (a *Agent) askRoot(ctx context.Context, portID, verReq string, group int) (offers []*node.Offer, err error) {
	a.locked(func(c *core, _ time.Time) { c.stats.QueriesSent++ })
	err = a.callRoot(ctx, "root_query", func(e *cdr.Encoder) {
		e.WriteString(portID)
		e.WriteString(verReq)
		e.WriteLong(int32(group))
	}, intoOffers(&offers))
	return offers, err
}

// intoOffers decodes an offer-list reply into *dst.
func intoOffers(dst *[]*node.Offer) orb.Unmarshaller {
	return func(d *cdr.Decoder) (err error) {
		*dst, err = node.UnmarshalOffers(d)
		return err
	}
}

// rootQuery resolves a query at the root: the summaries prune the fan-out
// to groups that actually export the port, exploiting the hierarchy.
func (a *Agent) rootQuery(ctx context.Context, portID, verReq string, skipGroup int) []*node.Offer {
	var groups [][]string
	a.locked(func(c *core, _ time.Time) { groups = c.exporters(portID, skipGroup) })
	var out []*node.Offer
	for _, cands := range groups {
		offers, _ := a.askGroup(ctx, cands, portID, verReq)
		out = append(out, offers...)
	}
	return out
}

// groupSnapshot captures this node's group index and its MRM replica
// candidates, or ErrNotJoined.
func (a *Agent) groupSnapshot() (group int, cands []string, err error) {
	a.locked(func(c *core, _ time.Time) {
		if !c.joined {
			err = ErrNotJoined
			return
		}
		group = c.dir.GroupOf(c.name)
		cands = c.dir.Candidates(group, c.cfg.Replicas)
	})
	return group, cands, err
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
		return a.knownOffers(portID, verReq), nil
	}
	// Level 0: own group MRM replicas; one reachable but without a local
	// match sends the query up.
	offers, lastErr := a.askGroup(ctx, cands, portID, verReq)
	if len(offers) > 0 {
		return offers, nil
	}
	// Level 1: the root fans out to exporting groups.
	if offers, err = a.askRoot(ctx, portID, verReq, group); err != nil {
		return nil, cmp.Or(lastErr, err)
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
		return a.knownOffers(portID, verReq), nil
	}
	out, _ := a.askGroup(ctx, cands, portID, verReq)
	rootOffers, err := a.askRoot(ctx, portID, verReq, group)
	if err == nil {
		out = append(out, rootOffers...)
	} else if len(out) == 0 {
		return nil, err
	}
	return dedupOffers(out), nil
}

// knownOffers answers from this node alone, as Strong mode does: its
// view plus its own offers (views exclude self, since agents do not
// flood to themselves).
func (a *Agent) knownOffers(portID, verReq string) []*node.Offer {
	return dedupOffers(append(a.viewQuery(portID, verReq), a.localOffers(portID, verReq)...))
}

// localOffers lists this node's own matching offers.
func (a *Agent) localOffers(portID, verReq string) []*node.Offer {
	req, err := version.ParseRequirement(verReq)
	if err != nil {
		return nil
	}
	var out []*node.Offer
	for _, of := range a.n.AllOffers() {
		if offerMatches(of, portID, req) {
			out = append(out, of)
		}
	}
	return out
}

// queryFlat is the non-hierarchical baseline: ask every node's Component
// Registry directly (E4 compares its message count against Query's).
func (a *Agent) queryFlat(ctx context.Context, portID, verReq string) ([]*node.Offer, error) {
	var dir *Directory
	a.locked(func(c *core, _ time.Time) {
		if c.joined {
			dir = c.dir.Clone()
		}
	})
	if dir == nil {
		return nil, ErrNotJoined
	}
	var out []*node.Offer
	for name, en := range dir.Nodes {
		if name == a.name {
			out = append(out, a.localOffers(portID, verReq)...)
			continue
		}
		var offers []*node.Offer
		a.locked(func(c *core, _ time.Time) { c.stats.QueriesSent++ })
		err := a.o.NewRef(en.Ref(node.ComponentRegistry)).InvokeContext(ctx, "query",
			func(e *cdr.Encoder) { e.WriteString(portID); e.WriteString(verReq) }, intoOffers(&offers))
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
