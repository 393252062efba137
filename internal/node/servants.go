package node

import (
	"context"

	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/container"
	"corbalc/internal/orb"
)

// registryServant exposes the Component Registry over CORBA (Fig. 1:
// "the Component Registry interface reflects the internal Component
// Repository and helps in performing distributed component queries").
type registryServant struct{ n *Node }

func (s *registryServant) RepositoryID() string { return ComponentRegistryRepoID }

// InvokeContext implements orb.Servant.
func (s *registryServant) InvokeContext(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	_ = ctx // registry operations are all node-local today
	n := s.n
	switch op {
	case "list_components":
		ids := n.repo.List()
		names := make([]string, len(ids))
		for i, id := range ids {
			names[i] = id.String()
		}
		reply.WriteStringSeq(names)
		return nil

	case "query":
		// (port_repoid string, version_req string) -> OfferSeq
		portID, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		verReq, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		offers, err := n.LocalQuery(portID, verReq)
		if err != nil {
			return &orb.UserException{
				ID:      "IDL:corbalc/ComponentRegistry/BadQuery:1.0",
				Payload: func(e *cdr.Encoder) { e.WriteString(err.Error()) },
			}
		}
		MarshalOffers(reply, offers)
		return nil

	case "get_package":
		// (component id string) -> octetseq: extraction of a component
		// in binary form, for fetch-and-install on another node.
		idStr, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		id, err := component.ParseID(idStr)
		if err != nil {
			return noComponentExc(idStr)
		}
		c, ok := n.repo.Get(id)
		if !ok {
			return noComponentExc(idStr)
		}
		if !c.Movable() {
			return &orb.UserException{
				ID:      "IDL:corbalc/ComponentRegistry/NotMovable:1.0",
				Payload: func(e *cdr.Encoder) { e.WriteString(idStr) },
			}
		}
		reply.WriteOctetSeq(c.Package().Bytes())
		return nil

	case "list_instances":
		// -> sequence of (component id, instance name)
		insts := n.Instances()
		total := 0
		for _, list := range insts {
			total += len(list)
		}
		reply.WriteULong(uint32(total))
		for id, list := range insts {
			for _, mi := range list {
				reply.WriteString(id.String())
				reply.WriteString(mi.Name())
			}
		}
		return nil

	case "instance_ports":
		// (component id, instance name) -> the assembly view: sequence
		// of (port, kind, repoid, connected) — §2.4.2 (c) "how those
		// instances are connected via ports (assemblies)".
		idStr, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		instName, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		id, err := component.ParseID(idStr)
		if err != nil {
			return noComponentExc(idStr)
		}
		n.mu.Lock()
		ct := n.containers[id]
		n.mu.Unlock()
		if ct == nil {
			return noComponentExc(idStr)
		}
		mi, ok := ct.Instance(instName)
		if !ok {
			return noComponentExc(idStr + "/" + instName)
		}
		states := mi.Ports().List()
		reply.WriteULong(uint32(len(states)))
		for _, st := range states {
			reply.WriteString(st.Desc.Name)
			reply.WriteString(string(st.Desc.Kind))
			reply.WriteString(st.Desc.RepoID)
			reply.WriteBool(st.Connected)
		}
		return nil

	case "digest":
		reply.WriteULongLong(n.Digest())
		return nil

	case "factory":
		// (component id) -> factory reference
		idStr, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		id, err := component.ParseID(idStr)
		if err != nil {
			return noComponentExc(idStr)
		}
		ct, err := n.ContainerFor(id)
		if err != nil {
			return noComponentExc(idStr)
		}
		ct.FactoryIOR().Marshal(reply)
		return nil
	}
	return orb.BadOperation()
}

func noComponentExc(id string) error {
	return &orb.UserException{
		ID:      "IDL:corbalc/ComponentRegistry/NoSuchComponent:1.0",
		Payload: func(e *cdr.Encoder) { e.WriteString(id) },
	}
}

// acceptorServant exposes the Component Acceptor over CORBA (Fig. 1:
// "hooks for accepting new components at run-time for local installation
// in the local Component Repository, instantiation and running").
type acceptorServant struct{ n *Node }

func (s *acceptorServant) RepositoryID() string { return ComponentAcceptorRepoID }

// InvokeContext implements orb.Servant: instantiation and port
// obtainment resolve dependencies network-wide under the caller's
// context, so a client deadline bounds the entire resolution fan-out.
func (s *acceptorServant) InvokeContext(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	n := s.n
	switch op {
	case "install":
		// (package octetseq) -> component id string
		data, err := args.ReadOctetSeq()
		if err != nil {
			return orb.Marshal()
		}
		id, err := n.Install(data)
		if err != nil {
			return installExc(err)
		}
		reply.WriteString(id.String())
		return nil

	case "uninstall":
		idStr, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		id, err := component.ParseID(idStr)
		if err != nil {
			return noComponentExc(idStr)
		}
		if err := n.Uninstall(id); err != nil {
			return noComponentExc(idStr)
		}
		return nil

	case "instantiate":
		// (component id, instance name) -> instance equivalent ref
		idStr, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		instName, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		id, err := component.ParseID(idStr)
		if err != nil {
			return noComponentExc(idStr)
		}
		mi, err := n.Instantiate(ctx, id, instName)
		if err != nil {
			return installExc(err)
		}
		mi.EquivalentIOR().Marshal(reply)
		return nil

	case "provide":
		// (component id, instance name, port) -> provided port ref;
		// one-call convenience for remote clients.
		idStr, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		instName, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		port, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		id, err := component.ParseID(idStr)
		if err != nil {
			return noComponentExc(idStr)
		}
		n.mu.Lock()
		ct := n.containers[id]
		n.mu.Unlock()
		if ct == nil {
			return noComponentExc(idStr)
		}
		mi, ok := ct.Instance(instName)
		if !ok {
			return noComponentExc(idStr + "/" + instName)
		}
		ref, err := mi.PortIOR(port)
		if err != nil {
			return installExc(err)
		}
		ref.Marshal(reply)
		return nil

	case "obtain":
		// (component id, port repoid) -> provided port ref, reusing a
		// running instance or creating one. The network resolver's
		// workhorse.
		idStr, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		portRepoID, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		id, err := component.ParseID(idStr)
		if err != nil {
			return noComponentExc(idStr)
		}
		ref, err := n.ObtainPort(ctx, id, portRepoID)
		if err != nil {
			return installExc(err)
		}
		ref.Marshal(reply)
		return nil

	case "event_service":
		// -> the node's event service reference (for cross-node event
		// channel bridging).
		n.EventsIOR().Marshal(reply)
		return nil

	case "yield_instance":
		// (component id, instance) -> capsule bytes; the sending half of
		// migration: the instance is passivated, captured and removed.
		idStr, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		instName, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		id, err := component.ParseID(idStr)
		if err != nil {
			return noComponentExc(idStr)
		}
		n.mu.Lock()
		ct := n.containers[id]
		n.mu.Unlock()
		if ct == nil {
			return noComponentExc(idStr)
		}
		capsule, err := ct.Migrate(instName)
		if err != nil {
			return installExc(err)
		}
		n.bumpDigest()
		reply.WriteOctetSeq(capsule.Bytes())
		return nil

	case "receive_capsule":
		// (component id, capsule bytes) -> instance equivalent ref; the
		// receiving half of migration.
		idStr, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		raw, err := args.ReadOctetSeq()
		if err != nil {
			return orb.Marshal()
		}
		id, err := component.ParseID(idStr)
		if err != nil {
			return noComponentExc(idStr)
		}
		ct, err := n.ContainerFor(id)
		if err != nil {
			return noComponentExc(idStr)
		}
		capsule, err := container.DecodeCapsuleBytes(raw)
		if err != nil {
			return installExc(err)
		}
		mi, err := ct.Restore(capsule)
		if err != nil {
			return installExc(err)
		}
		n.bumpDigest()
		mi.EquivalentIOR().Marshal(reply)
		return nil
	}
	return orb.BadOperation()
}

func installExc(err error) error {
	return &orb.UserException{
		ID:      "IDL:corbalc/ComponentAcceptor/Rejected:1.0",
		Payload: func(e *cdr.Encoder) { e.WriteString(err.Error()) },
	}
}
