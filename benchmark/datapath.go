package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/gateway"
	"corbalc/internal/orb"
	"corbalc/internal/svcctx"
)

// The four data-path workloads: native IIOP callers (iiop_small,
// iiop_bulk) and web clients behind the gateway (gw_uncached,
// gw_mix_open), all against the same stack and servant.

// refused tallies the ways the stack can push back, as the callers see
// them.
type refused struct {
	transient int // CORBA TRANSIENT / HTTP 503: a queue or admission limit said no
	timeouts  int // CORBA TIMEOUT / HTTP 504
	status5xx int // any HTTP 5xx
}

func (a *refused) add(b refused) {
	a.transient += b.transient
	a.timeouts += b.timeouts
	a.status5xx += b.status5xx
}

func (a *refused) noteErr(err error) {
	var se *orb.SystemException
	if errors.As(err, &se) {
		switch se.Name {
		case "TRANSIENT":
			a.transient++
		case "TIMEOUT":
			a.timeouts++
		}
	}
}

// dataCounters fills the counters every data-path workload can read
// from the stack's public surfaces.
func dataCounters(st *stack, ref refused, m map[string]float64) {
	m["orb.requests_served"] = float64(st.backend.RequestsServed())
	bs, bv := st.backend.Stats().Errors()
	cs, cv := st.client.Stats().Errors()
	m["orb.errors"] = float64(bs + bv + cs + cv)
	m["iiop.transient_refused"] = float64(ref.transient)
	m["iiop.timeouts"] = float64(ref.timeouts)
	m["gateway.status_5xx"] = float64(ref.status5xx)
	m["gateway.transbufs_leaked"] = float64(gateway.TransBufsInFlight())
}

// ---- native IIOP callers ----

// iiopCaller is one closed-loop native caller. Its marshallers are bound
// once, so the generator adds no allocation to the call it measures.
type iiopCaller struct {
	ref  *orb.ObjectRef
	vals []int32  // iiop_small: ping arguments
	bufs [][]byte // iiop_bulk: payloads, indexed by picks
	pick []uint8

	arg     int32
	payload []byte
	match   bool
	tr      *tracer // set for the duration of a traced op
	root    uint64  // the traced op's root span, which doubles as its request id
	refused refused

	marshalPing, marshalBulk     orb.Marshaller
	unmarshalPing, unmarshalBulk orb.Unmarshaller
}

func newIIOPCaller(ref *orb.ObjectRef) *iiopCaller {
	c := &iiopCaller{ref: ref}
	c.marshalPing = c.spanMarshal(func(e *cdr.Encoder) { e.WriteLong(c.arg) })
	c.marshalBulk = c.spanMarshal(func(e *cdr.Encoder) { e.WriteOctetSeq(c.payload) })
	c.unmarshalPing = c.spanUnmarshal(func(d *cdr.Decoder) error {
		v, err := d.ReadLong()
		c.match = err == nil && v == c.arg
		return err
	})
	c.unmarshalBulk = c.spanUnmarshal(func(d *cdr.Decoder) error {
		b, err := d.ReadOctetSeqAlias()
		c.match = err == nil && bytes.Equal(b, c.payload)
		return err
	})
	return c
}

// spanMarshal wraps a marshaller so that, in a traced op only, it
// records itself as a child of the invocation.
func (c *iiopCaller) spanMarshal(m orb.Marshaller) orb.Marshaller {
	return func(e *cdr.Encoder) {
		if c.tr == nil {
			m(e)
			return
		}
		start := time.Now()
		m(e)
		c.tr.add("cdr.marshal", c.tr.newID(), c.root, c.root, start, time.Now())
	}
}

// spanUnmarshal is spanMarshal for the reply side (decode and verify).
func (c *iiopCaller) spanUnmarshal(u orb.Unmarshaller) orb.Unmarshaller {
	return func(d *cdr.Decoder) error {
		if c.tr == nil {
			return u(d)
		}
		start := time.Now()
		err := u(d)
		c.tr.add("cdr.unmarshal", c.tr.newID(), c.root, c.root, start, time.Now())
		return err
	}
}

// invoke performs one verified call, inside a root span when traced.
func (c *iiopCaller) invoke(op string, m orb.Marshaller, u orb.Unmarshaller, tr *tracer) bool {
	c.match = false
	ctx := context.Background()
	var start time.Time
	if tr != nil {
		c.tr, c.root = tr, tr.newID()
		ctx = svcctx.WithCallID(ctx, callID(c.root, c.root))
		tr.calls.Add(1)
		start = time.Now()
	}
	err := c.ref.InvokeContext(ctx, op, m, u)
	if tr != nil {
		tr.add("orb.InvokeContext", c.root, 0, c.root, start, time.Now())
		tr.calls.Add(-1)
		c.tr = nil
	}
	if err != nil {
		c.refused.noteErr(err)
	}
	return err == nil && c.match
}

func (c *iiopCaller) ping(i int, tr *tracer) bool {
	c.arg = c.vals[i%len(c.vals)]
	return c.invoke("ping", c.marshalPing, c.unmarshalPing, tr)
}

func (c *iiopCaller) bulk(i int, tr *tracer) bool {
	c.payload = c.bufs[c.pick[i%len(c.pick)]]
	return c.invoke("echo_bytes", c.marshalBulk, c.unmarshalBulk, tr)
}

type iiopRun struct {
	st      *stack
	callers []*iiopCaller
	bulk    bool
}

func (x *iiopRun) op(c *iiopCaller) func(int, *tracer) bool {
	if x.bulk {
		return c.bulk
	}
	return c.ping
}

// prepareIIOP generates the callers' argument sequences and returns the
// set-up that brings the stack up and dials both stripes.
func prepareIIOP(bulk bool) func(cfg runConfig) func() (instance, error) {
	return func(cfg runConfig) func() (instance, error) {
		r := rand.New(rand.NewSource(cfg.seed))
		var bufs [][]byte
		if bulk {
			for i := 0; i < bulkPayloads; i++ {
				bufs = append(bufs, randBytes(r, bulkSize))
			}
		}
		vals := make([][]int32, callers)
		picks := make([][]uint8, callers)
		for c := range vals {
			vals[c] = make([]int32, seqLen)
			picks[c] = make([]uint8, seqLen)
			for i := range vals[c] {
				vals[c][i] = r.Int31()
				picks[c][i] = uint8(r.Intn(bulkPayloads))
			}
		}
		return func() (instance, error) {
			st, err := newStack(cfg.tr, false)
			if err != nil {
				return nil, err
			}
			x := &iiopRun{st: st, bulk: bulk}
			for c := 0; c < callers; c++ {
				ic := newIIOPCaller(st.ref)
				ic.vals, ic.bufs, ic.pick = vals[c], bufs, picks[c]
				x.callers = append(x.callers, ic)
				if !x.op(ic)(0, nil) {
					_ = st.close()
					return nil, fmt.Errorf("first call of caller %d failed", c)
				}
			}
			return x, nil
		}
	}
}

func (x *iiopRun) drive(w *window) (driven, error) {
	perSecond := 100_000 // per caller: twice what the reference box does
	if x.bulk {
		perSecond = 30_000
	}
	recs, err := newRecorders(callers, w, perSecond)
	if err != nil {
		return driven{}, err
	}
	return drive(w, recs, func(i int, rec *recorder) {
		closedLoop(w, rec, x.op(x.callers[i]))
	}), nil
}

func (x *iiopRun) counters(m map[string]float64) {
	var ref refused
	for _, c := range x.callers {
		ref.add(c.refused)
	}
	dataCounters(x.st, ref, m)
}

func (x *iiopRun) close() (int, error) { return 0, x.st.close() }

// ---- web clients behind the gateway ----

// webCaller is one HTTP client on its own keep-alive connection.
type webCaller struct {
	hc      *http.Client
	base    string
	ops     []*webOp
	buf     []byte
	hits    int // X-Cache: hit seen
	misses  int // X-Cache: miss seen
	pokes   int // oneways accepted with 202
	refused refused
	late    []time.Duration
}

// do sends the caller's i-th request.
func (c *webCaller) do(i int, tr *tracer) bool { return c.send(c.ops[i%len(c.ops)], tr) }

// send performs one verified request, inside a root span when traced.
func (c *webCaller) send(op *webOp, tr *tracer) bool {
	req, err := http.NewRequest(http.MethodPost, c.base+op.path, bytes.NewReader(op.body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	var start time.Time
	var id uint64
	if tr != nil {
		id = tr.newID()
		req.Header.Set("X-Call-Id", callID(id, id))
		tr.calls.Add(1)
		start = time.Now()
	}
	ok := c.roundTrip(req, op)
	if tr != nil {
		tr.add("http.roundtrip", id, 0, id, start, time.Now())
		tr.calls.Add(-1)
	}
	return ok
}

func (c *webCaller) roundTrip(req *http.Request, op *webOp) bool {
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	c.buf, err = readAllInto(c.buf[:0], resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return false
	}
	switch resp.Header.Get("X-Cache") {
	case "hit":
		c.hits++
	case "miss":
		c.misses++
	}
	if resp.StatusCode >= 500 {
		c.refused.status5xx++
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			c.refused.transient++
		case http.StatusGatewayTimeout:
			c.refused.timeouts++
		}
	}
	if resp.StatusCode != op.status {
		return false
	}
	if op.kind == kindPoke {
		c.pokes++
	}
	return op.want == nil || bytes.Equal(c.buf, op.want) || sameJSON(c.buf, op.want)
}

// readAllInto is io.ReadAll into a reused buffer.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// sameJSON accepts a reply that differs from the canonical rendering
// only in spelling (key order, whitespace).
func sameJSON(a, b []byte) bool {
	var x, y any
	return json.Unmarshal(a, &x) == nil && json.Unmarshal(b, &y) == nil && reflect.DeepEqual(x, y)
}

// mixRate is gw_mix_open's offered load, requests per second over all
// connections: about a fifth of what the two cores sustain closed-loop,
// so queueing is visible but the backlog never grows.
const mixRate = 2000

type gwRun struct {
	st      *stack
	callers []*webCaller
	open    bool
	seconds float64 // length of the window last driven
}

// prepareGW generates the request sequences and returns the set-up that
// brings stack, gateway and HTTP front end up and opens both
// connections.
func prepareGW(open bool) func(cfg runConfig) func() (instance, error) {
	return func(cfg runConfig) func() (instance, error) {
		r := rand.New(rand.NewSource(cfg.seed))
		seqs := make([][]*webOp, callers)
		for c := range seqs {
			if open {
				seqs[c] = mixOps(r, int((cfg.warm+cfg.window()).Seconds()*mixRate)/callers+16)
			} else {
				seqs[c] = uncachedOps(r)
			}
		}
		return func() (instance, error) {
			st, err := newStack(cfg.tr, true)
			if err != nil {
				return nil, err
			}
			x := &gwRun{st: st, open: open}
			for c := 0; c < callers; c++ {
				wc := &webCaller{hc: st.clients[c], base: st.base, ops: seqs[c], late: make([]time.Duration, 0, len(seqs[c]))}
				x.callers = append(x.callers, wc)
				first := addOp(stroke{X: 1, Y: 2, Colour: 3, Author: "setup"})
				if !wc.send(first, nil) {
					_ = st.close()
					return nil, fmt.Errorf("first request of connection %d failed", c)
				}
			}
			return x, nil
		}
	}
}

func (x *gwRun) drive(w *window) (driven, error) {
	recs, err := newRecorders(callers, w, 20_000)
	if err != nil {
		return driven{}, err
	}
	if !x.open {
		return drive(w, recs, func(i int, rec *recorder) {
			closedLoop(w, rec, x.callers[i].do)
		}), nil
	}
	// The schedule starts now, so the warm-up is offered the same rate
	// as the window; the connections' schedules interleave.
	period := time.Second * callers / mixRate
	begin := time.Now()
	x.seconds = (time.Duration(w.slices) * w.sliceLen).Seconds()
	return drive(w, recs, func(i int, rec *recorder) {
		c := x.callers[i]
		sched := schedule{start: begin, offset: period * time.Duration(i) / callers, period: period}
		openLoop(w, rec, sched, len(c.ops), &c.late, c.do)
	}), nil
}

func (x *gwRun) counters(m map[string]float64) {
	var ref refused
	hits, misses := 0, 0
	var late []time.Duration
	for _, c := range x.callers {
		ref.add(c.refused)
		hits += c.hits
		misses += c.misses
		late = append(late, c.late...)
	}
	dataCounters(x.st, ref, m)
	gm := x.st.gw.Metrics()
	m["gateway.rejected"] = float64(gm.Rejected)
	m["gateway.invalidations"] = float64(gm.Routes[boardKey].Generation)
	m["gateway.cache_hit_ratio"] = float64(hits) / float64(max(1, hits+misses))
	if x.open && len(late) > 0 {
		slices.Sort(late)
		p99, _ := percentileSorted(late, 0.99)
		m["gen.late_p99_us"] = float64(p99) / 1e3
		m["gen.offered_per_s"] = float64(len(late)) / x.seconds
	}
}

// close checks the gateway's own books against what the clients saw —
// every X-Cache header accounted for, every accepted oneway delivered,
// every translation buffer returned — and tears the stack down.
func (x *gwRun) close() (failures int, err error) {
	hits, misses, pokes := 0, 0, 0
	for _, c := range x.callers {
		hits += c.hits
		misses += c.misses
		pokes += c.pokes
	}
	get := x.st.gw.Metrics().Routes[boardKey].Ops["get_stroke"]
	if int(get.CacheHits) != hits || int(get.CacheMisses) != misses {
		failures++
		err = fmt.Errorf("X-Cache headers (%d hit, %d miss) disagree with Gateway.Metrics (%d, %d)",
			hits, misses, get.CacheHits, get.CacheMisses)
	}
	// A oneway is acknowledged before the servant runs; give stragglers
	// a moment before calling them lost.
	for deadline := time.Now().Add(2 * time.Second); int(x.st.servant.pokes.Load()) < pokes && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := int(x.st.servant.pokes.Load()); got != pokes {
		failures += pokes - got
		err = errors.Join(err, fmt.Errorf("%d of %d accepted oneways never reached the servant", pokes-got, pokes))
	}
	cerr := x.st.close()
	if n := gateway.TransBufsInFlight(); n != 0 {
		failures++
		err = errors.Join(err, fmt.Errorf("%d translation buffers still in flight at exit", n))
	}
	return failures, errors.Join(err, cerr)
}
