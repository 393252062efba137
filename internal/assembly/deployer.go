package assembly

import (
	"context"
	"fmt"

	"corbalc/internal/cdr"
	"corbalc/internal/deploy"
	"corbalc/internal/ior"
	"corbalc/internal/node"
	"corbalc/internal/orb"
)

// Deployed is a running application: where each instance landed and the
// event bridges holding its cross-node channels together.
type Deployed struct {
	Assembly   *Assembly
	Placements map[string]*deploy.Placement

	o       *orb.ORB
	bridges []bridgeRec
}

type bridgeRec struct {
	events *ior.IOR // event service holding the bridge
	id     string
}

// Deploy matches the assembly's declarations against the network at run
// time: each instance is placed on the currently best node, connections
// are wired through the instances' reflective interfaces, and event
// links become channel bridges between the hosting nodes.
func Deploy(ctx context.Context, e *deploy.Engine, o *orb.ORB, a *Assembly) (*Deployed, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	dep := &Deployed{
		Assembly:   a,
		Placements: make(map[string]*deploy.Placement, len(a.Instances)),
		o:          o,
	}
	// Phase 1: placement.
	for _, decl := range a.Instances {
		pl, err := e.Place(ctx, decl.Component, decl.Version, a.Name+"."+decl.Name)
		if err != nil {
			dep.Teardown()
			return nil, fmt.Errorf("assembly %s: placing %s: %w", a.Name, decl.Name, err)
		}
		dep.Placements[decl.Name] = pl
	}
	// Phase 2: port connections (uses -> provides).
	for _, c := range a.Connections {
		from, to := dep.Placements[c.From], dep.Placements[c.To]
		target, err := e.ProvidePort(ctx, to, c.ToPort)
		if err != nil {
			dep.Teardown()
			return nil, fmt.Errorf("assembly %s: port %s.%s: %w", a.Name, c.To, c.ToPort, err)
		}
		if err := e.Connect(ctx, from, c.FromPort, target); err != nil {
			dep.Teardown()
			return nil, fmt.Errorf("assembly %s: connecting %s.%s: %w", a.Name, c.From, c.FromPort, err)
		}
	}
	// Phase 3: event links (emits -> consumes) become channel bridges
	// from the emitter's node to the consumer's node, unless both ends
	// share a node (the hub connects them already).
	for _, l := range a.EventLinks {
		from, to := dep.Placements[l.From], dep.Placements[l.To]
		if from.Node == to.Node {
			continue
		}
		typeID, err := dep.portRepoID(ctx, from, l.FromPort)
		if err != nil {
			dep.Teardown()
			return nil, fmt.Errorf("assembly %s: event link %s.%s: %w", a.Name, l.From, l.FromPort, err)
		}
		if err := dep.bridge(ctx, from, to, typeID); err != nil {
			dep.Teardown()
			return nil, fmt.Errorf("assembly %s: bridging %s -> %s: %w", a.Name, from.Node, to.Node, err)
		}
	}
	return dep, nil
}

// portRepoID asks an instance's reflective interface for a port's type.
func (dep *Deployed) portRepoID(ctx context.Context, pl *deploy.Placement, port string) (string, error) {
	equiv := dep.o.NewRef(pl.Equivalent)
	var repoID string
	err := equiv.InvokeContext(ctx, "ports", nil, func(d *cdr.Decoder) error {
		n, err := d.ReadULong()
		if err != nil {
			return err
		}
		for i := uint32(0); i < n; i++ {
			name, err := d.ReadString()
			if err != nil {
				return err
			}
			if _, err := d.ReadString(); err != nil { // kind
				return err
			}
			rid, err := d.ReadString()
			if err != nil {
				return err
			}
			if _, err := d.ReadBool(); err != nil { // connected
				return err
			}
			if _, err := d.ReadBool(); err != nil { // declared
				return err
			}
			if name == port {
				repoID = rid
			}
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if repoID == "" {
		return "", fmt.Errorf("assembly: instance has no port %q", port)
	}
	return repoID, nil
}

// bridge links the emitter node's channel for typeID to the consumer's
// node.
func (dep *Deployed) bridge(ctx context.Context, from, to *deploy.Placement, typeID string) error {
	src, dst := from.Ref(node.EventService), to.Ref(node.EventService)
	srcRef := dep.o.NewRef(src)
	var id string
	err := srcRef.InvokeContext(ctx, "bridge",
		func(e *cdr.Encoder) {
			e.WriteString(typeID)
			dst.Marshal(e)
		},
		func(d *cdr.Decoder) error {
			var err error
			id, err = d.ReadString()
			return err
		})
	if err != nil {
		return err
	}
	dep.bridges = append(dep.bridges, bridgeRec{events: src, id: id})
	return nil
}

// Teardown removes bridges and destroys the application's instances
// (best effort: unreachable nodes are skipped). It accepts no context so
// deferred cleanup still runs after the deploy context is cancelled; use
// TeardownContext to bound it.
func (dep *Deployed) Teardown() { dep.TeardownContext(context.Background()) }

// TeardownContext is Teardown bounded by ctx.
func (dep *Deployed) TeardownContext(ctx context.Context) {
	for _, b := range dep.bridges {
		ref := dep.o.NewRef(b.events)
		_ = ref.InvokeContext(ctx, "unbridge", func(e *cdr.Encoder) { e.WriteString(b.id) }, nil)
	}
	dep.bridges = nil
	for declName, pl := range dep.Placements {
		reg := dep.o.NewRef(pl.Ref(node.ComponentRegistry))
		var factory *ior.IOR
		err := reg.InvokeContext(ctx, "factory",
			func(e *cdr.Encoder) { e.WriteString(pl.ComponentID) },
			func(d *cdr.Decoder) error {
				var err error
				factory, err = ior.Unmarshal(d)
				return err
			})
		if err != nil {
			continue
		}
		fref := dep.o.NewRef(factory)
		_ = fref.InvokeContext(ctx, "destroy",
			func(e *cdr.Encoder) { e.WriteString(dep.Assembly.Name + "." + declName) }, nil)
	}
}
