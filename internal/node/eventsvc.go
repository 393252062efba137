package node

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/events"
	"corbalc/internal/ior"
	"corbalc/internal/orb"
)

// KeyEvents is the event service's object key.
const KeyEvents = "node/events"

// EventServiceRepoID is the CORBA interface ID of the event service.
const EventServiceRepoID = "IDL:corbalc/EventService:1.0"

// EventsIOR returns the node's event service reference.
func (n *Node) EventsIOR() *ior.IOR { return n.orb.NewIOR(EventServiceRepoID, KeyEvents) }

// eventService makes a node's event hub reachable over CORBA and
// supports cross-node event links: a bridge subscribes to a local
// channel and forwards each event to a remote node's event service with
// a oneway push, which is how assemblies connect an emits port on one
// node to a consumes port on another (the push event channels of
// §2.1.2, stretched across the network). A subscription is the
// high-fan-out variant of a bridge: the forwarder drains whole queue
// batches and ships them in one SyncNone push_batch frame, so a remote
// subscriber costs one wire message per drained batch instead of one
// per event.
type eventService struct {
	n       *Node
	mu      sync.Mutex
	bridges map[string]func() // bridge id -> cancel
	subs    map[string]func() // subscription id -> cancel
	seq     atomic.Uint64
}

func newEventService(n *Node) *eventService {
	return &eventService{
		n:       n,
		bridges: make(map[string]func()),
		subs:    make(map[string]func()),
	}
}

func (s *eventService) RepositoryID() string { return EventServiceRepoID }

func (s *eventService) InvokeContext(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	switch op {
	case "push":
		// (type id, source, data): inject an event into the local hub.
		typeID, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		source, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		data, err := args.ReadOctetSeq()
		if err != nil {
			return orb.Marshal()
		}
		_ = s.n.hub.Channel(typeID).Push(events.Event{Source: source, Data: data})
		return nil

	case "bridge":
		// (type id, target event service IOR) -> bridge id. Events of
		// this kind published here are forwarded to the target node.
		typeID, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		target, err := ior.Unmarshal(args)
		if err != nil {
			return orb.Marshal()
		}
		id := s.addBridge(typeID, target)
		reply.WriteString(id)
		return nil

	case "unbridge":
		id, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		if !s.removeBridge(id) {
			return &orb.UserException{
				ID:      "IDL:corbalc/EventService/NoSuchBridge:1.0",
				Payload: func(e *cdr.Encoder) { e.WriteString(id) },
			}
		}
		return nil

	case "push_batch":
		// (type id, count, count x (source, data)): inject a run of
		// events of one kind — the batched counterpart of push, sent by
		// remote subscriptions.
		typeID, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		n, err := args.ReadULong()
		if err != nil {
			return orb.Marshal()
		}
		ch := s.n.hub.Channel(typeID)
		for i := uint32(0); i < n; i++ {
			source, err := args.ReadString()
			if err != nil {
				return orb.Marshal()
			}
			data, err := args.ReadOctetSeq()
			if err != nil {
				return orb.Marshal()
			}
			_ = ch.Push(events.Event{Source: source, Data: data})
		}
		return nil

	case "subscribe":
		// (type id, target event service IOR) -> subscription id. Like
		// bridge, but the forwarder ships drained batches as single
		// SyncNone push_batch frames instead of one push per event.
		typeID, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		target, err := ior.Unmarshal(args)
		if err != nil {
			return orb.Marshal()
		}
		id := s.addSubscription(typeID, target)
		reply.WriteString(id)
		return nil

	case "unsubscribe":
		id, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		if !s.removeSubscription(id) {
			return &orb.UserException{
				ID:      "IDL:corbalc/EventService/NoSuchSubscription:1.0",
				Payload: func(e *cdr.Encoder) { e.WriteString(id) },
			}
		}
		return nil

	case "events_stats":
		// () -> Blob: per-channel counters of the local hub, for the
		// admin tool's events view.
		stats := s.n.hub.ChannelStats()
		reply.WriteULong(uint32(len(stats)))
		for _, st := range stats {
			reply.WriteString(st.TypeID)
			reply.WriteULongLong(st.Published)
			reply.WriteULongLong(st.Delivered)
			reply.WriteULongLong(st.Dropped)
			reply.WriteULong(uint32(st.Subscribers))
		}
		return nil
	}
	return orb.BadOperation()
}

func (s *eventService) addBridge(typeID string, target *ior.IOR) string {
	id := fmt.Sprintf("bridge-%d", s.seq.Add(1))
	targetRef := s.n.orb.NewRef(target)
	cancel := s.n.hub.Channel(typeID).Subscribe("bridge/"+id, func(ev events.Event) {
		// Bound each forward by the node's lifetime plus a short push
		// deadline: a wedged remote must not stall the hub forever.
		ctx, done := context.WithTimeout(s.n.ctx, 5*time.Second)
		defer done()
		_ = targetRef.InvokeOnewayContext(ctx, "push", func(e *cdr.Encoder) {
			e.WriteString(ev.TypeID)
			e.WriteString(ev.Source)
			e.WriteOctetSeq(ev.Data)
		})
	})
	s.mu.Lock()
	s.bridges[id] = cancel
	s.mu.Unlock()
	return id
}

// addSubscription wires a batch forwarder: every queue drain becomes
// one push_batch oneway under SyncNone, so fan-out to a remote
// subscriber rides the write coalescer without a reply slot per event.
func (s *eventService) addSubscription(typeID string, target *ior.IOR) string {
	id := fmt.Sprintf("sub-%d", s.seq.Add(1))
	targetRef := s.n.orb.NewRef(target)
	cancel := s.n.hub.Channel(typeID).SubscribeBatch("sub/"+id, func(batch []events.Event) {
		ctx, done := context.WithTimeout(s.n.ctx, 5*time.Second)
		defer done()
		_ = targetRef.InvokeOnewayScoped(ctx, "push_batch", func(e *cdr.Encoder) {
			e.WriteString(typeID)
			e.WriteULong(uint32(len(batch)))
			for _, ev := range batch {
				e.WriteString(ev.Source)
				e.WriteOctetSeq(ev.Data)
			}
		}, orb.SyncNone)
	})
	s.mu.Lock()
	s.subs[id] = cancel
	s.mu.Unlock()
	return id
}

func (s *eventService) removeSubscription(id string) bool {
	s.mu.Lock()
	cancel, ok := s.subs[id]
	delete(s.subs, id)
	s.mu.Unlock()
	if ok {
		cancel()
	}
	return ok
}

func (s *eventService) removeBridge(id string) bool {
	s.mu.Lock()
	cancel, ok := s.bridges[id]
	delete(s.bridges, id)
	s.mu.Unlock()
	if ok {
		cancel()
	}
	return ok
}

func (s *eventService) close() {
	s.mu.Lock()
	bridges := s.bridges
	subs := s.subs
	s.bridges = make(map[string]func())
	s.subs = make(map[string]func())
	s.mu.Unlock()
	for _, cancel := range bridges {
		cancel()
	}
	for _, cancel := range subs {
		cancel()
	}
}
