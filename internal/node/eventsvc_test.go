package node

// Tests for the remote-subscriber half of the event service: batched
// push_batch forwarding, subscription lifecycle, and the events_stats
// counters the admin tool reads.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/events"
	"corbalc/internal/leak"
	"corbalc/internal/orb"
)

func TestEventServiceSubscribeForwardsBatches(t *testing.T) {
	leak.Check(t)
	a, b, _ := twoNodesOverSimnet(t)

	var got atomic.Int64
	cancel := b.Hub().Channel("IDL:test/E:1.0").Subscribe("t", func(ev events.Event) {
		if ev.Source == "src" {
			got.Add(1)
		}
	})
	defer cancel()

	// Subscribe b's event service to a's channel: batches of events
	// published on a arrive on b as push_batch oneways.
	evA := a.ORB().NewRef(a.EventsIOR())
	var subID string
	if err := evA.InvokeContext(context.Background(), "subscribe", func(e *cdr.Encoder) {
		e.WriteString("IDL:test/E:1.0")
		b.EventsIOR().Marshal(e)
	}, func(d *cdr.Decoder) error {
		var e error
		subID, e = d.ReadString()
		return e
	}); err != nil {
		t.Fatal(err)
	}

	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Hub().Channel("IDL:test/E:1.0").Push(events.Event{Source: "src", Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, &got, n)

	// Unsubscribe stops the flow.
	if err := evA.InvokeContext(context.Background(), "unsubscribe", func(e *cdr.Encoder) { e.WriteString(subID) }, nil); err != nil {
		t.Fatal(err)
	}
	_ = a.Hub().Channel("IDL:test/E:1.0").Push(events.Event{Source: "src"})
	time.Sleep(30 * time.Millisecond)
	if got.Load() != n {
		t.Fatalf("events after unsubscribe = %d, want %d", got.Load(), n)
	}
	err := evA.InvokeContext(context.Background(), "unsubscribe", func(e *cdr.Encoder) { e.WriteString("sub-999") }, nil)
	if !orb.IsUserException(err, "IDL:corbalc/EventService/NoSuchSubscription:1.0") {
		t.Fatalf("err = %v", err)
	}
}

func TestEventServicePushBatchOp(t *testing.T) {
	leak.Check(t)
	n := newTestNode(t, "pb", WorkstationProfile())

	var got atomic.Int64
	cancel := n.Hub().Channel("IDL:test/E:1.0").Subscribe("t", func(ev events.Event) { got.Add(1) })
	defer cancel()

	ev := n.ORB().NewRef(n.EventsIOR())
	if err := ev.InvokeContext(context.Background(), "push_batch", func(e *cdr.Encoder) {
		e.WriteString("IDL:test/E:1.0")
		e.WriteULong(3)
		for i := 0; i < 3; i++ {
			e.WriteString("src")
			e.WriteOctetSeq([]byte{byte(i)})
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &got, 3)
}

func TestEventServiceStatsOp(t *testing.T) {
	leak.Check(t)
	n := newTestNode(t, "st", WorkstationProfile())

	ch := n.Hub().Channel("IDL:test/E:1.0")
	var got atomic.Int64
	cancel := ch.Subscribe("t", func(events.Event) { got.Add(1) })
	defer cancel()
	for i := 0; i < 4; i++ {
		if err := ch.Push(events.Event{}); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, &got, 4)

	type row struct {
		typeID         string
		pub, del, drop uint64
		subs           uint32
	}
	var rows []row
	ev := n.ORB().NewRef(n.EventsIOR())
	if err := ev.InvokeContext(context.Background(), "events_stats", nil, func(d *cdr.Decoder) error {
		cnt, err := d.ReadULong()
		if err != nil {
			return err
		}
		for i := uint32(0); i < cnt; i++ {
			var r row
			if r.typeID, err = d.ReadString(); err != nil {
				return err
			}
			if r.pub, err = d.ReadULongLong(); err != nil {
				return err
			}
			if r.del, err = d.ReadULongLong(); err != nil {
				return err
			}
			if r.drop, err = d.ReadULongLong(); err != nil {
				return err
			}
			if r.subs, err = d.ReadULong(); err != nil {
				return err
			}
			rows = append(rows, r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rows {
		if r.typeID == "IDL:test/E:1.0" {
			found = true
			if r.pub != 4 || r.del != 4 || r.subs != 1 {
				t.Fatalf("stats row = %+v", r)
			}
		}
	}
	if !found {
		t.Fatalf("events_stats missing channel row: %+v", rows)
	}
}
