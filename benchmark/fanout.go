package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/events"
	"corbalc/internal/iiop"
	"corbalc/internal/node"
)

// events_fanout: one publisher, 64 local per-event subscribers and one
// remote subscriber on a second node over loopback IIOP. The default
// Block policy makes it a closed loop by back-pressure.

const (
	tickType  = "IDL:bench/Tick:1.0"
	eventSize = 64
	localSubs = 64
	// ringLen is how many payload buffers the publisher rotates. A queued
	// event keeps its buffer until delivered; under Block no subscriber
	// falls more than its queue (256) plus one batch (64) behind, so 4096
	// buffers are never reused while still referenced.
	ringLen = 4096
	// localSampleEvery thins the local-delivery latency probe.
	localSampleEvery = 64
)

// Payload layout (little endian): [0:8] publisher sequence, [8:16]
// publish time in ns since the run's epoch, [16:24] the id of the
// event's root span when it is traced (else 0), [24:64] seeded filler.

type fanoutRun struct {
	pub, sub       *node.Node
	pubSrv, subSrv *iiop.Server
	ch             *events.Channel
	cancels        []func()
	ring           [][]byte
	epoch          time.Time
	tr             *tracer

	w         atomic.Pointer[window]
	rec       *recorder // filled by the remote subscriber's delivery goroutine
	closed    atomic.Bool
	published atomic.Uint64
	arrived   atomic.Uint64 // handled by the remote subscriber
	final     atomic.Uint64 // sequence of the run's last event, once known
	localDone atomic.Int32  // local subscribers that have handled the last event
	seen      []uint64      // bitset of publisher sequences the remote subscriber got
	gaps      atomic.Int64  // order or identity violations at any subscriber
	localLat  []time.Duration
}

func prepareFanout(cfg runConfig) func() (instance, error) {
	r := rand.New(rand.NewSource(cfg.seed))
	ring := make([][]byte, ringLen)
	for i := range ring {
		ring[i] = randBytes(r, eventSize)
	}
	return func() (instance, error) {
		x := &fanoutRun{ring: ring, epoch: time.Now(), tr: cfg.tr, localLat: make([]time.Duration, 0, 1<<16)}
		if err := x.setup(); err != nil {
			x.teardown()
			return nil, err
		}
		return x, nil
	}
}

// listen brings up the publisher and subscriber nodes, each with an
// IIOP endpoint on loopback and a client transport to reach the other.
func (x *fanoutRun) listen() error {
	x.pub = node.New(node.Config{Name: "pub"})
	x.sub = node.New(node.Config{Name: "sub"})
	var err error
	if x.pubSrv, err = iiop.ListenAndActivate(x.pub.ORB(), "127.0.0.1:0"); err != nil {
		return fmt.Errorf("publisher listen: %w", err)
	}
	if x.subSrv, err = iiop.ListenAndActivate(x.sub.ORB(), "127.0.0.1:0"); err != nil {
		return fmt.Errorf("subscriber listen: %w", err)
	}
	x.pub.ORB().RegisterTransport(&iiop.Transport{PoolSize: callers})
	x.sub.ORB().RegisterTransport(&iiop.Transport{PoolSize: callers})
	return nil
}

func (x *fanoutRun) setup() error {
	if err := x.listen(); err != nil {
		return err
	}
	x.ch = x.pub.Hub().Channel(tickType)
	for i := 0; i < localSubs; i++ {
		x.cancels = append(x.cancels, x.ch.Subscribe(fmt.Sprintf("local-%d", i), x.localConsumer(i == 0)))
	}
	x.cancels = append(x.cancels, x.sub.Hub().Channel(tickType).Subscribe("remote", x.remoteConsumer))

	// The subscriber node subscribes itself, over IIOP, at the
	// publisher's event service.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := subscribeRemote(ctx, x.sub, x.pub); err != nil {
		return fmt.Errorf("remote subscribe: %w", err)
	}
	// First event end to end: it dials the push_batch stripe.
	x.publish(time.Now(), nil)
	for deadline := time.Now().Add(10 * time.Second); x.arrived.Load() < 1; {
		if time.Now().After(deadline) {
			return errors.New("first event never reached the remote subscriber")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// subscribeRemote has `to` subscribe, over the wire, to from's channel
// and returns the subscription id.
func subscribeRemote(ctx context.Context, to, from *node.Node) (id string, err error) {
	err = to.ORB().NewRef(from.EventsIOR()).InvokeContext(ctx, "subscribe",
		func(e *cdr.Encoder) {
			e.WriteString(tickType)
			to.EventsIOR().Marshal(e)
		},
		func(d *cdr.Decoder) (derr error) {
			id, derr = d.ReadString()
			return derr
		})
	return id, err
}

// localConsumer checks what every local subscriber must see: the
// channel's sequence without a gap, on a payload that is still the one
// published under it. One subscriber also samples delivery latency.
func (x *fanoutRun) localConsumer(sample bool) events.Consumer {
	var last uint64
	return func(ev events.Event) {
		if ev.Seq != last+1 || len(ev.Data) != eventSize || binary.LittleEndian.Uint64(ev.Data) != ev.Seq {
			x.gaps.Add(1)
		}
		last = ev.Seq
		if sample && ev.Seq%localSampleEvery == 0 && len(x.localLat) < cap(x.localLat) {
			sent := x.epoch.Add(time.Duration(binary.LittleEndian.Uint64(ev.Data[8:])))
			x.localLat = append(x.localLat, time.Since(sent))
		}
		if ev.Seq == x.final.Load() {
			x.localDone.Add(1) // publishes everything this subscriber wrote
		}
	}
}

// remoteConsumer runs on the remote subscriber's delivery goroutine. The
// server may dispatch batches out of order, so it checks the set of
// publisher sequences (each exactly once), not their order.
func (x *fanoutRun) remoteConsumer(ev events.Event) {
	now := time.Now()
	ok := len(ev.Data) == eventSize
	var seq uint64
	var sent time.Time
	if ok {
		seq = binary.LittleEndian.Uint64(ev.Data)
		sent = x.epoch.Add(time.Duration(binary.LittleEndian.Uint64(ev.Data[8:])))
		word, bit := seq/64, uint64(1)<<(seq%64)
		for uint64(len(x.seen)) <= word {
			x.seen = append(x.seen, 0)
		}
		ok = seq != 0 && x.seen[word]&bit == 0
		x.seen[word] |= bit
	}
	if !ok {
		x.gaps.Add(1)
	}
	defer x.arrived.Add(1) // last: publishes what this call wrote to the recorder
	w := x.w.Load()
	if w == nil {
		return // set-up's first event
	}
	if ok {
		// The root span runs from publication to arrival here; the
		// publisher hangs its Push under it.
		if root := binary.LittleEndian.Uint64(ev.Data[16:]); root != 0 {
			x.tr.add("events.deliver", root, 0, seq, sent, now)
		}
	}
	if x.rec.record(w, now, now.Sub(sent), ok) {
		x.closed.Store(true)
	}
}

// publish pushes one event stamped with start, inside a span when tr is
// set.
func (x *fanoutRun) publish(start time.Time, tr *tracer) bool {
	seq := x.published.Add(1)
	buf := x.ring[seq%ringLen]
	binary.LittleEndian.PutUint64(buf, seq)
	var root uint64
	if tr != nil {
		root = tr.newID()
	}
	binary.LittleEndian.PutUint64(buf[16:], root)
	binary.LittleEndian.PutUint64(buf[8:], uint64(start.Sub(x.epoch)))
	err := x.ch.Push(events.Event{Source: "bench", Data: buf})
	if tr != nil {
		tr.add("events.Push", tr.newID(), root, seq, start, time.Now())
	}
	return err == nil
}

func (x *fanoutRun) drive(w *window) (driven, error) {
	recs, err := newRecorders(1, w, 500_000)
	if err != nil {
		return driven{}, err
	}
	x.rec = recs[0]
	x.w.Store(w)
	d := drive(w, recs, func(int, *recorder) {
		for i := 0; !x.closed.Load(); i++ {
			start := time.Now()
			if !x.publish(start, w.tracerFor(i, start)) {
				x.gaps.Add(1)
				return
			}
		}
	})
	x.quiesce()
	return d, nil
}

// quiesce publishes one last event under an announced sequence and waits
// until every subscriber has handled it — local subscribers see events in
// order, the remote one is counted — or five seconds pass: what is still
// missing then is lost.
func (x *fanoutRun) quiesce() {
	x.final.Store(x.published.Load() + 1)
	x.publish(time.Now(), nil)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if x.localDone.Load() == localSubs && x.arrived.Load() == x.published.Load() {
			return
		}
	}
}

func (x *fanoutRun) counters(m map[string]float64) {
	_, delivered, dropped := x.ch.Stats()
	_, _, subDropped := x.sub.Hub().Channel(tickType).Stats()
	m["events.delivered"] = float64(delivered)
	m["events.dropped"] = float64(dropped + subDropped)
	if _, batches := x.sub.ORB().Stats().Oneways(); batches > 0 {
		m["events.batch_size_mean"] = float64(x.arrived.Load()) / float64(batches)
	}
	m["events.local_deliver_p50_us"] = medianIn(time.Microsecond, x.localLat)
	m["events.remote_deliver_p50_us"] = medianIn(time.Microsecond, x.rec.lat)
	m["orb.requests_served"] = float64(x.pub.ORB().RequestsServed() + x.sub.ORB().RequestsServed())
	ps, pv := x.pub.ORB().Stats().Errors()
	ss, sv := x.sub.ORB().Stats().Errors()
	m["orb.errors"] = float64(ps + pv + ss + sv)
}

// close counts what the fabric lost or garbled and tears both nodes
// down.
func (x *fanoutRun) close() (failures int, err error) {
	_, _, dropped := x.ch.Stats()
	missed := int(x.published.Load() - x.arrived.Load())
	failures = missed + int(x.gaps.Load()) + int(dropped)
	if failures > 0 {
		err = fmt.Errorf("events_fanout: %d events missed by the remote subscriber, %d sequence violations, %d dropped",
			missed, x.gaps.Load(), dropped)
	}
	return failures, errors.Join(err, x.teardown())
}

func (x *fanoutRun) teardown() error {
	for _, c := range x.cancels {
		c()
	}
	var errs []error
	if x.pub != nil {
		x.pub.Close()
	}
	if x.sub != nil {
		x.sub.Close()
	}
	for _, s := range []*iiop.Server{x.pubSrv, x.subSrv} {
		if s != nil {
			errs = append(errs, s.Close())
		}
	}
	return errors.Join(errs...)
}
