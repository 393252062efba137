// Package deploy implements CORBA-LC's run-time deployment engine
// (paper §2.4.3–§2.4.4): resolving component dependencies against the
// whole network, scoring the candidate offers by locality, load and
// mobility, deciding between using a component remotely and fetching it
// for local installation, placing assembly instances on nodes at run
// time (the paper's alternative to CCM's fixed deployment), and load
// balancing through instance migration.
package deploy

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/ior"
	"corbalc/internal/node"
	"corbalc/internal/xmldesc"
)

// Querier finds offers for a port interface ID (or "component:<name>"
// key) network-wide; cohesion.Agent implements it.
type Querier interface {
	Query(ctx context.Context, portRepoID, versionReq string) ([]*node.Offer, error)
}

// Errors returned by the engine.
var (
	ErrNoOffer = errors.New("deploy: no offer satisfies the request")
)

// Policy tunes placement decisions.
type Policy struct {
	// FetchEnabled allows fetching movable components for local
	// installation when profitable.
	FetchEnabled bool
	// FetchBandwidthMbps is the bandwidth-demand threshold above which
	// a movable component is worth fetching locally (the paper's MPEG
	// decoder case: "a component decoding a MPEG video stream would
	// work much faster if it is installed locally"). Zero fetches any
	// movable component when the local node has room.
	FetchBandwidthMbps float64
	// LoadWeight scales how strongly node load penalises an offer.
	LoadWeight float64
	// LocalBonus is the score bonus for offers already on this node.
	LocalBonus float64
}

// DefaultPolicy returns the standard placement policy.
func DefaultPolicy() Policy {
	return Policy{
		FetchEnabled:       true,
		FetchBandwidthMbps: 5,
		LoadWeight:         1,
		LocalBonus:         0.5,
	}
}

// Engine resolves and places components for one node.
type Engine struct {
	n      *node.Node
	q      Querier
	policy Policy
}

// NewEngine builds an engine; it can be installed as the node's
// dependency resolver via node.SetResolver.
func NewEngine(n *node.Node, q Querier, policy Policy) *Engine {
	return &Engine{n: n, q: q, policy: policy}
}

// score ranks an offer: lower load and local placement win.
func (e *Engine) score(of *node.Offer) float64 {
	s := -e.policy.LoadWeight * of.NodeLoad
	if of.Node == e.n.Name() {
		s += e.policy.LocalBonus
	}
	return s
}

// rank sorts offers best-first.
func (e *Engine) rank(offers []*node.Offer) []*node.Offer {
	sorted := append([]*node.Offer(nil), offers...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return e.score(sorted[i]) > e.score(sorted[j])
	})
	return sorted
}

// Resolve implements node.DependencyResolver: it finds the best provider
// for a required uses port anywhere in the network, optionally fetching
// the component for local use first.
func (e *Engine) Resolve(ctx context.Context, p xmldesc.Port) (*ior.IOR, error) {
	// Local fast path: the node's own repository.
	if offers, err := e.n.LocalQuery(p.RepoID, p.Version); err == nil && len(offers) > 0 {
		id, err := component.ParseID(offers[0].ComponentID)
		if err == nil {
			if ref, err := e.n.ObtainPort(ctx, id, p.RepoID); err == nil {
				return ref, nil
			}
		}
	}
	offers, err := e.q.Query(ctx, p.RepoID, p.Version)
	if err != nil {
		return nil, err
	}
	if len(offers) == 0 {
		return nil, fmt.Errorf("%w: %s (%s)", ErrNoOffer, p.RepoID, p.Version)
	}
	var lastErr error
	for _, of := range e.rank(offers) {
		ref, err := e.useOffer(ctx, of, p.RepoID)
		if err == nil {
			return ref, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("deploy: all %d offers failed, last: %w", len(offers), lastErr)
}

// useOffer turns one offer into a provided-port reference, deciding
// between local fetch and remote use.
func (e *Engine) useOffer(ctx context.Context, of *node.Offer, portRepoID string) (*ior.IOR, error) {
	id, err := component.ParseID(of.ComponentID)
	if err != nil {
		return nil, err
	}
	if of.Node == e.n.Name() {
		return e.n.ObtainPort(ctx, id, portRepoID)
	}
	if e.shouldFetch(of) {
		if ref, err := e.fetchAndObtain(ctx, of, id, portRepoID); err == nil {
			return ref, nil
		}
		// Fetching failed (capability, space, ...): fall back to
		// remote use.
	}
	return e.remoteObtain(ctx, of, portRepoID)
}

// shouldFetch applies the fetch-vs-remote decision.
func (e *Engine) shouldFetch(of *node.Offer) bool {
	if !e.policy.FetchEnabled || !of.Movable || e.n.Resources().Profile().Fixed {
		return false
	}
	if !e.n.Resources().CanHost(xmldesc.QoS{CPUMin: of.CPUMin, MemoryMinMB: int(of.MemoryMinMB)}) {
		return false
	}
	// Fetch only bandwidth-hungry components unless the threshold is
	// zero (always-fetch): the paper's MPEG case, where moving the
	// binary once beats streaming data over the link forever.
	if e.policy.FetchBandwidthMbps > 0 && of.BandwidthMin < e.policy.FetchBandwidthMbps {
		return false
	}
	return true
}

// fetchAndObtain pulls the component package from the offering node,
// installs it locally and obtains the port from the local copy.
func (e *Engine) fetchAndObtain(ctx context.Context, of *node.Offer, id component.ID, portRepoID string) (*ior.IOR, error) {
	if _, ok := e.n.Repo().Get(id); !ok {
		reg := e.n.ORB().NewRef(of.Ref(node.ComponentRegistry))
		var pkg []byte
		err := reg.InvokeContext(ctx, "get_package",
			func(enc *cdr.Encoder) { enc.WriteString(of.ComponentID) },
			func(d *cdr.Decoder) error {
				var err error
				pkg, err = d.ReadOctetSeq()
				return err
			})
		if err != nil {
			return nil, fmt.Errorf("deploy: fetching %s from %s: %w", of.ComponentID, of.Node, err)
		}
		if _, err := e.n.Install(pkg); err != nil {
			return nil, err
		}
	}
	return e.n.ObtainPort(ctx, id, portRepoID)
}

// remoteObtain asks the offering node for a port on a (possibly shared)
// instance.
func (e *Engine) remoteObtain(ctx context.Context, of *node.Offer, portRepoID string) (*ior.IOR, error) {
	acc := e.n.ORB().NewRef(of.Ref(node.ComponentAcceptor))
	var ref *ior.IOR
	err := acc.InvokeContext(ctx, "obtain",
		func(enc *cdr.Encoder) {
			enc.WriteString(of.ComponentID)
			enc.WriteString(portRepoID)
		},
		func(d *cdr.Decoder) error {
			var err error
			ref, err = ior.Unmarshal(d)
			return err
		})
	if err != nil {
		return nil, fmt.Errorf("deploy: obtaining %s from %s: %w", portRepoID, of.Node, err)
	}
	return ref, nil
}

// Place chooses the best node for a fresh instance of a component (by
// name) and instantiates it there, returning where it landed and the
// instance's reflective reference. This is the run-time half of the
// paper's §2.4.4: "the exact node in which every instance is going to be
// run is decided when the application requests it".
type Placement struct {
	InstanceName string
	ComponentID  string
	Node         string
	Equivalent   *ior.IOR
	// Endpoint is the hosting node's endpoint (ior.Cut).
	Endpoint []byte
}

// Ref derives the reference to one of the hosting node's services.
func (pl *Placement) Ref(svc node.Service) *ior.IOR { return node.Derive(pl.Endpoint, svc) }

// Place instantiates component `name` (satisfying verReq) on the
// least-loaded offering node under the given instance name.
func (e *Engine) Place(ctx context.Context, name, verReq, instanceName string) (*Placement, error) {
	offers, err := e.q.Query(ctx, node.ComponentKey(name), verReq)
	if err != nil {
		return nil, err
	}
	if len(offers) == 0 {
		return nil, fmt.Errorf("%w: component %s (%s)", ErrNoOffer, name, verReq)
	}
	var lastErr error
	for _, of := range e.rank(offers) {
		pl, err := e.instantiateAt(ctx, of, instanceName)
		if err == nil {
			return pl, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("deploy: placing %s failed on every node, last: %w", name, lastErr)
}

func (e *Engine) instantiateAt(ctx context.Context, of *node.Offer, instanceName string) (*Placement, error) {
	acc := e.n.ORB().NewRef(of.Ref(node.ComponentAcceptor))
	var equiv *ior.IOR
	err := acc.InvokeContext(ctx, "instantiate",
		func(enc *cdr.Encoder) {
			enc.WriteString(of.ComponentID)
			enc.WriteString(instanceName)
		},
		func(d *cdr.Decoder) error {
			var err error
			equiv, err = ior.Unmarshal(d)
			return err
		})
	if err != nil {
		return nil, err
	}
	return &Placement{
		InstanceName: instanceName,
		ComponentID:  of.ComponentID,
		Node:         of.Node,
		Equivalent:   equiv,
		Endpoint:     of.Endpoint,
	}, nil
}

// ProvidePort asks a placement's node for one of the instance's provided
// ports.
func (e *Engine) ProvidePort(ctx context.Context, pl *Placement, port string) (*ior.IOR, error) {
	equiv := e.n.ORB().NewRef(pl.Equivalent)
	var ref *ior.IOR
	err := equiv.InvokeContext(ctx, "provide_port",
		func(enc *cdr.Encoder) { enc.WriteString(port) },
		func(d *cdr.Decoder) error {
			var err error
			ref, err = ior.Unmarshal(d)
			return err
		})
	if err != nil {
		return nil, err
	}
	return ref, nil
}

// Connect wires a placement's uses port to a provider reference through
// the instance's reflective interface.
func (e *Engine) Connect(ctx context.Context, pl *Placement, port string, target *ior.IOR) error {
	equiv := e.n.ORB().NewRef(pl.Equivalent)
	return equiv.InvokeContext(ctx, "connect",
		func(enc *cdr.Encoder) {
			enc.WriteString(port)
			target.Marshal(enc)
		}, nil)
}
