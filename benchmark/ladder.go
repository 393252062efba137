package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"corbalc/internal/bufpool"
	"corbalc/internal/cdr"
	"corbalc/internal/cohesion"
	"corbalc/internal/component"
	"corbalc/internal/dii"
	"corbalc/internal/events"
	"corbalc/internal/giop"
	"corbalc/internal/idl"
	"corbalc/internal/iiop"
	"corbalc/internal/ior"
	"corbalc/internal/orb"
	"corbalc/internal/simnet"
	"corbalc/internal/svcctx"
)

// The traced run's probes: one caller, the workloads' own payloads,
// timed call by call from outside.
//
// The cut ladder issues the same add_stroke at successive cuts through
// the stack — servant, collocated reference, simnet, loopback IIOP, DII,
// the gateway's handler, real HTTP — and charges each layer the
// difference between its cut's median and the previous cut's. The leaf
// probes time the public functions of the layers below the ladder's
// resolution.

const (
	probeWarm = 200
	probeN    = 2000
	slowN     = 20 // repetitions of millisecond-scale probes
)

// cut is one probed function and the metric names its median time and
// (optionally) its allocations per call are recorded under. settle, when
// set, runs untimed after every timed call.
type cut struct {
	ns, allocs string
	fn         func() error
	settle     func()
}

// timeCuts calls every cut warm times untimed, then n times timed in
// rounds — call i of every cut before call i+1 of any, each round in a
// fresh (fixed-seed) order — and returns each cut's median. Whatever
// drifts during the probe (collector pacing, scheduler state, the host)
// then drifts under all cuts alike, and no cut always runs on the caches
// and parked goroutines its predecessor left, so the difference between
// two cuts' medians means something even when it is a fiftieth of
// either. Allocations are counted afterwards, cut by cut, process-wide.
func timeCuts(warm, n int, cuts []cut) (ns, allocs []float64, err error) {
	durs := make([][]time.Duration, len(cuts))
	for c, ct := range cuts {
		durs[c] = make([]time.Duration, n)
		for i := 0; i < warm; i++ {
			if err := ct.fn(); err != nil {
				return nil, nil, fmt.Errorf("probe %s: %w", ct.ns, err)
			}
		}
	}
	order := rand.New(rand.NewSource(1)).Perm(len(cuts))
	shuffle := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		shuffle.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, c := range order {
			t0 := time.Now()
			if err := cuts[c].fn(); err != nil {
				return nil, nil, fmt.Errorf("probe %s: %w", cuts[c].ns, err)
			}
			durs[c][i] = time.Since(t0)
			if cuts[c].settle != nil {
				cuts[c].settle()
			}
		}
	}
	ns, allocs = make([]float64, len(cuts)), make([]float64, len(cuts))
	for c, ct := range cuts {
		slices.Sort(durs[c])
		ns[c] = float64(durs[c][n/2])
		if ct.allocs == "" {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < warm; i++ {
			if err := ct.fn(); err != nil {
				return nil, nil, fmt.Errorf("probe %s: %w", ct.ns, err)
			}
		}
		runtime.ReadMemStats(&after)
		allocs[c] = float64(after.Mallocs-before.Mallocs) / float64(warm)
	}
	return ns, allocs, nil
}

// prober runs probes into a metric map and keeps the first error.
type prober struct {
	m   map[string]float64
	err error
}

// cuts times the cuts together, records each under its names (cuts that
// share an allocs name have their allocations summed), and returns the
// medians.
func (p *prober) cuts(warm, n int, cuts ...cut) []float64 {
	if p.err != nil {
		return make([]float64, len(cuts))
	}
	ns, allocs, err := timeCuts(warm, n, cuts)
	if err != nil {
		p.err = err
		return make([]float64, len(cuts))
	}
	for _, ct := range cuts {
		delete(p.m, ct.allocs)
	}
	for c, ct := range cuts {
		p.m[ct.ns] = ns[c]
		if ct.allocs != "" {
			p.m[ct.allocs] += allocs[c]
		}
	}
	return ns
}

// ns times one function on its own.
func (p *prober) ns(name, allocs string, fn func() error) {
	p.cuts(probeWarm, probeN, cut{ns: name, allocs: allocs, fn: fn})
}

// slow times a millisecond-scale function slowN times and records the
// median in milliseconds.
func (p *prober) slow(name string, fn func() error) {
	p.m[name] = p.cuts(1, slowN, cut{ns: name, fn: fn})[0] / 1e6
}

var probeStroke = stroke{X: 120, Y: 340, Colour: 0xff8800, Author: "eleanor-rigby"}

func strokeValue(s stroke) map[string]any {
	return map[string]any{"x": s.X, "y": s.Y, "colour": s.Colour, "author": s.Author}
}

// addStroke is the ladder's operation at the ORB cuts.
func addStroke(ref *orb.ObjectRef) func() error {
	var got int32
	marshal := func(e *cdr.Encoder) { writeStroke(e, probeStroke) }
	unmarshal := func(d *cdr.Decoder) (err error) { got, err = d.ReadLong(); return err }
	return func() error {
		if err := ref.InvokeContext(context.Background(), "add_stroke", marshal, unmarshal); err != nil {
			return err
		}
		if got != probeStroke.sum() {
			return fmt.Errorf("add_stroke returned %d, want %d", got, probeStroke.sum())
		}
		return nil
	}
}

// replay serves one framed message over and over: a connection
// delivering a stream of identical frames.
type replay struct {
	frame []byte
	pos   int
}

func (r *replay) Read(p []byte) (int, error) {
	if r.pos == len(r.frame) {
		r.pos = 0
	}
	n := copy(p, r.frame[r.pos:])
	r.pos += n
	return n, nil
}

// probes fills m with every probe-derived per-layer metric.
func probes(m map[string]float64) error {
	p := &prober{m: m}
	st, err := newStack(nil, true)
	if err != nil {
		return err
	}
	defer func() { _ = st.close() }()

	if err := ladder(p, st); err != nil {
		return err
	}
	leafCodec(p, st)
	if err := leafIIOP(p, st); err != nil {
		return err
	}
	if err := leafNode(p); err != nil {
		return err
	}
	return p.err
}

// ladder times the cuts together and derives the self times.
func ladder(p *prober, st *stack) error {
	// Cut 0, the ladder's foot: the servant called directly on encoded
	// arguments.
	sv := &boardServant{}
	servant := func() error {
		args := cdr.GetEncoder(cdr.LittleEndian, 0)
		defer args.Release()
		writeStroke(args, probeStroke)
		reply := cdr.GetEncoder(cdr.LittleEndian, 0)
		defer reply.Release()
		if err := sv.Invoke("add_stroke", cdr.NewDecoder(args.Bytes(), cdr.LittleEndian), reply); err != nil {
			return err
		}
		got, err := cdr.NewDecoder(reply.Bytes(), cdr.LittleEndian).ReadLong()
		if err != nil || got != probeStroke.sum() {
			return fmt.Errorf("servant returned %d (%v)", got, err)
		}
		return nil
	}

	// Cut 1: a collocated reference on the serving ORB.
	local := orb.NewORB()
	defer local.Shutdown()
	collocated := addStroke(local.NewRef(local.Activate(boardKey, sv)))

	// Cut 2: two ORBs on the zero-delay virtual network.
	vnet := simnet.New(simnet.Link{})
	a, b := orb.NewORB(), orb.NewORB()
	defer a.Shutdown()
	defer b.Shutdown()
	if err := errors.Join(vnet.Attach("a", a), vnet.Attach("b", b)); err != nil {
		return err
	}
	virtual := addStroke(b.NewRef(a.Activate(boardKey, sv)))

	// Cut 3 is loopback IIOP with the workloads' transport and server;
	// cut 4 the same call typed at run time through DII.
	iface, ok := st.repo.LookupType("bench::Board")
	if !ok {
		return errors.New("bench::Board missing from the repository")
	}
	obj, err := dii.Bind(st.ref, iface)
	if err != nil {
		return err
	}
	arg := strokeValue(probeStroke)
	viaDII := func() error {
		res, err := obj.CallContext(context.Background(), "add_stroke", arg)
		if err != nil {
			return err
		}
		if got, _ := res.Return.(int32); got != probeStroke.sum() {
			return fmt.Errorf("dii add_stroke returned %v", res.Return)
		}
		return nil
	}

	// Cut 5: the gateway's handler on a recorder — JSON in, JSON out, no
	// sockets. Cut 6: real HTTP on one keep-alive connection.
	add := addOp(probeStroke)
	handler := func() error {
		req := httptest.NewRequest(http.MethodPost, add.path, bytes.NewReader(add.body))
		rec := httptest.NewRecorder()
		st.handler.ServeHTTP(rec, req)
		if rec.Code != add.status || !bytes.Equal(rec.Body.Bytes(), add.want) {
			return fmt.Errorf("handler answered %d %q", rec.Code, rec.Body.Bytes())
		}
		return nil
	}
	wc := &webCaller{hc: st.clients[0], base: st.base, ops: []*webOp{add, getOp(7)}}
	post := func(i int) func() error {
		return func() error {
			if !wc.do(i, nil) {
				return fmt.Errorf("POST %s failed", wc.ops[i].path)
			}
			return nil
		}
	}

	ns := p.cuts(probeWarm, probeN,
		cut{ns: "ladder.servant_ns", fn: servant},
		cut{ns: "orb.collocated_ns", allocs: "orb.collocated_allocs", fn: collocated},
		cut{ns: "simnet.call_ns", fn: virtual},
		cut{ns: "iiop.rtt_ns", allocs: "iiop.rtt_allocs", fn: addStroke(st.ref)},
		cut{ns: "dii.call_ns", allocs: "dii.call_allocs", fn: viaDII},
		cut{ns: "gateway.handler_ns", allocs: "gateway.handler_allocs", fn: handler},
		cut{ns: "gateway.http_ns", fn: post(0)},
	)
	delete(p.m, "ladder.servant_ns") // the foot is the benchmark's own code, not a layer
	for i, self := range []string{"orb.self_ns", "simnet.self_ns", "iiop.self_ns", "dii.self_ns", "gateway.self_ns", "gateway.http_self_ns"} {
		p.m[self] = ns[i+1] - ns[i]
	}
	// Off the ladder, and on its own — an add_stroke between two reads
	// would invalidate the entry: the same connection answered from the
	// response cache.
	p.ns("gateway.hit_ns", "gateway.hit_allocs", post(1))
	if p.err == nil && wc.hits < probeN {
		return fmt.Errorf("cache-hit probe saw only %d hits", wc.hits)
	}
	return p.err
}

// leafCodec times the codecs and pools below the ORB on the workloads'
// own payloads.
func leafCodec(p *prober, st *stack) {
	// cdr: a Stroke through a pooled encoder, and back.
	p.ns("cdr.encode_ns", "cdr.encode_allocs", func() error {
		e := cdr.GetEncoder(cdr.LittleEndian, 0)
		writeStroke(e, probeStroke)
		e.Release()
		return nil
	})
	enc := cdr.NewEncoder(cdr.LittleEndian)
	writeStroke(enc, probeStroke)
	p.ns("cdr.decode_ns", "", func() error {
		_, err := readStroke(cdr.NewDecoder(enc.Bytes(), cdr.LittleEndian))
		return err
	})

	// giop: the add_stroke request header, then whole frames small and
	// 64 KiB through the vectored writer and the pooled reader.
	hdr := &giop.RequestHeader{RequestID: 7, ResponseExpected: true, ObjectKey: []byte(boardKey), Operation: "add_stroke"}
	p.ns("giop.request_encode_ns", "", func() error {
		e := giop.GetBodyEncoder(cdr.LittleEndian)
		defer e.Release()
		return giop.EncodeRequest(e, giop.V12, hdr)
	})
	small := giop.NewBodyEncoder(cdr.LittleEndian)
	p.err = errors.Join(p.err, giop.EncodeRequest(small, giop.V12, hdr))
	giop.AlignBody(small, giop.V12)
	writeStroke(small, probeStroke)
	var into giop.RequestHeader
	p.ns("giop.request_decode_ns", "", func() error {
		return giop.DecodeRequestInto(cdr.NewDecoderAt(small.Bytes(), cdr.LittleEndian, giop.HeaderLen), giop.V12, &into)
	})
	big := giop.NewBodyEncoder(cdr.LittleEndian)
	p.err = errors.Join(p.err, giop.EncodeRequest(big, giop.V12, hdr))
	giop.AlignBody(big, giop.V12)
	big.WriteOctetSeq(make([]byte, bulkSize))

	fh := giop.Header{Version: giop.V12, Order: cdr.LittleEndian, Type: giop.MsgRequest}
	mw := giop.NewWriter(io.Discard)
	// One framed message through the vectored writer and the pooled
	// reader; frame_allocs is what the two allocate together.
	frame := func(body []byte, write, read cut) {
		write.fn = func() error { return mw.WriteMessage(fh, body) }
		var wire bytes.Buffer
		p.err = errors.Join(p.err, giop.WriteMessage(&wire, fh, body))
		rd := &replay{frame: wire.Bytes()}
		read.fn = func() error {
			msg, err := giop.ReadMessagePooled(rd)
			if err != nil {
				return err
			}
			msg.Release()
			return nil
		}
		p.cuts(probeWarm, probeN, write, read)
	}
	frame(small.Bytes(), cut{ns: "giop.frame_write_ns", allocs: "giop.frame_allocs"}, cut{ns: "giop.frame_read_ns", allocs: "giop.frame_allocs"})
	frame(big.Bytes(), cut{ns: "giop.frame_write_64k_ns"}, cut{ns: "giop.frame_read_64k_ns"})

	p.ns("bufpool.getput_ns", "", func() error { bufpool.Put(bufpool.Get(256)); return nil })
	p.ns("bufpool.getput_64k_ns", "", func() error { bufpool.Put(bufpool.Get(bulkSize)); return nil })

	// svcctx: a deadline and a call id into service contexts and out.
	ctx, cancel := context.WithDeadline(svcctx.WithCallID(context.Background(), "bench:1.1"), time.Now().Add(time.Hour))
	defer cancel()
	var scs []giop.ServiceContext
	p.ns("svcctx.inject_extract_ns", "", func() error {
		scs = svcctx.Inject(ctx, scs[:0])
		if info := svcctx.Extract(scs); !info.HasDeadline || info.CallID == "" {
			return errors.New("service contexts lost the deadline or the call id")
		}
		return nil
	})

	key := []byte(boardKey)
	p.ns("orb.adapter_resolve_ns", "", func() error {
		if _, ok := st.backend.Adapter().Resolve(key); !ok {
			return errors.New("adapter lost the board")
		}
		return nil
	})

	// idl: the same Stroke typed at run time; parsing the benchmark IDL.
	iface, _ := st.repo.LookupType("bench::Board")
	strokeT, ok := st.repo.LookupType("bench::Stroke")
	if !ok || iface == nil {
		p.err = errors.Join(p.err, errors.New("bench types missing from the repository"))
		return
	}
	arg := strokeValue(probeStroke)
	p.ns("idl.encode_ns", "idl.encode_allocs", func() error {
		e := cdr.GetEncoder(cdr.LittleEndian, 0)
		defer e.Release()
		return idl.Encode(e, strokeT, arg)
	})
	p.ns("idl.decode_ns", "", func() error {
		_, err := idl.Decode(cdr.NewDecoder(enc.Bytes(), cdr.LittleEndian), strokeT)
		return err
	})
	p.slow("idl.parse_ms", func() error { return idl.NewRepository().ParseString("bench.idl", boardIDL) })
	if obj, err := dii.Bind(st.ref, iface); err != nil {
		p.err = errors.Join(p.err, err)
	} else {
		p.ns("dii.signature_ns", "", func() error {
			if _, ok := obj.Signature("add_stroke"); !ok {
				return errors.New("no signature for add_stroke")
			}
			return nil
		})
	}

	// events: Push into a channel with one idle per-event subscriber.
	ch := events.NewChannel(tickType, 256, events.Block)
	defer ch.Close()
	cancelSub := ch.Subscribe("probe", func(events.Event) {})
	defer cancelSub()
	payload := make([]byte, eventSize)
	p.ns("events.push_ns", "events.push_allocs", func() error { return ch.Push(events.Event{Source: "bench", Data: payload}) })
}

// leafIIOP times what the ladder's IIOP cut does not: the bulk round
// trip, a oneway's send, and a cold dial.
func leafIIOP(p *prober, st *stack) error {
	payload := bytes.Repeat([]byte{0x5a}, bulkSize)
	var same bool
	marshal := func(e *cdr.Encoder) { e.WriteOctetSeq(payload) }
	unmarshal := func(d *cdr.Decoder) error {
		b, err := d.ReadOctetSeqAlias()
		same = bytes.Equal(b, payload)
		return err
	}
	p.ns("iiop.rtt_64k_ns", "", func() error {
		if err := st.ref.InvokeContext(context.Background(), "echo_bytes", marshal, unmarshal); err != nil {
			return err
		}
		if !same {
			return errors.New("echo_bytes garbled the payload")
		}
		return nil
	})
	// A oneway returns when the frame is on the socket; let the servant
	// catch up between sends, or two thousand of them overflow the
	// dispatch queue and the next two-way call is refused with TRANSIENT.
	poke := func(e *cdr.Encoder) { e.WriteLong(1) }
	sent := st.servant.pokes.Load()
	p.cuts(probeWarm, probeN, cut{
		ns: "iiop.oneway_send_ns",
		fn: func() error {
			sent++
			return st.ref.InvokeOnewayContext(context.Background(), "poke", poke)
		},
		settle: func() {
			for deadline := time.Now().Add(time.Second); st.servant.pokes.Load() < sent && time.Now().Before(deadline); {
				runtime.Gosched()
			}
		},
	})
	target := st.backend.NewIOR(boardRepoID, boardKey)
	p.slow("iiop.dial_ms", func() error {
		c := orb.NewORB()
		defer c.Shutdown()
		c.RegisterTransport(&iiop.Transport{PoolSize: -1})
		return addStroke(c.NewRef(target))()
	})
	return p.err
}

// leafNode times the node-level operations that set-up pays for: a
// remote event subscription, a package install, a local offer query —
// and decoding a swarm-sized directory.
func leafNode(p *prober) error {
	x := &fanoutRun{}
	defer func() { _ = x.teardown() }()
	if err := x.listen(); err != nil {
		return err
	}
	events := x.sub.ORB().NewRef(x.pub.EventsIOR())
	p.slow("node.subscribe_ms", func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		id, err := subscribeRemote(ctx, x.sub, x.pub)
		if err != nil {
			return err
		}
		return events.InvokeContext(ctx, "unsubscribe", func(e *cdr.Encoder) { e.WriteString(id) }, nil)
	})

	spec := &component.Spec{Name: "worker", Version: "1.0.0", Entrypoint: "bench/worker.New"}
	spec.Provide("work", "IDL:bench/Work:1.0")
	pkg, err := spec.BuildPackage()
	if err != nil {
		return err
	}
	p.slow("node.install_ms", func() error {
		id, err := x.pub.Install(pkg.Bytes())
		if err != nil {
			return err
		}
		return x.pub.Uninstall(id)
	})
	if _, err := x.pub.Install(pkg.Bytes()); err != nil {
		return err
	}
	p.ns("node.local_query_us", "", func() error {
		offers, err := x.pub.LocalQuery("IDL:bench/Work:1.0", "*")
		if err == nil && len(offers) != 1 {
			err = fmt.Errorf("local query found %d offers, want 1", len(offers))
		}
		return err
	})
	p.m["node.local_query_us"] /= 1e3

	dir := cohesion.NewDirectory()
	for i := 0; i < swarmNodes; i++ {
		name := fmt.Sprintf("n%03d", i)
		ref := func(key string) *ior.IOR {
			return ior.New("IDL:corbalc/"+key+":1.0", "127.0.0.1", 9000, []byte(key+"/"+name))
		}
		dir.Assign(&cohesion.NodeDesc{
			Name: name, Capability: "workstation",
			Cohesion: ref("Cohesion"), Registry: ref("Registry"), Acceptor: ref("Acceptor"), Resources: ref("Resources"),
		}, swarmOptions.GroupSize)
	}
	enc := cdr.NewEncoder(cdr.LittleEndian)
	dir.Marshal(enc)
	p.ns("cohesion.directory_unmarshal_ns", "", func() error {
		got, err := cohesion.UnmarshalDirectory(cdr.NewDecoder(enc.Bytes(), cdr.LittleEndian))
		if err == nil && got.Len() != swarmNodes {
			err = fmt.Errorf("directory decoded to %d nodes", got.Len())
		}
		return err
	})
	return p.err
}
