package iiop

// Regression tests for the bounded-dispatch layer: the server used to
// spawn one goroutine per request (go handleRequest(...) straight from
// the read loop), so a request storm grew the process by thousands of
// goroutines. Dispatch now runs on a bounded worker pool fed by a
// bounded queue, both grown on demand; these tests pin the goroutine
// ceiling, the admission bound, the overflow behaviour (GIOP TRANSIENT,
// not queue growth) and what an idle server and connection hold.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/leak"
	"corbalc/internal/orb"
	"corbalc/internal/race"
)

// startTunedServer is startServer with a smaller dispatch pool and
// queue, which must be set before Listen.
func startTunedServer(t testing.TB, key string, servant orb.Servant, maxDispatch, queue int) (*orb.ORB, *Server) {
	t.Helper()
	serverORB := orb.NewORB()
	srv := NewServer(serverORB)
	srv.maxDispatch = maxDispatch
	srv.dispatchQueue = queue
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if err := activate(serverORB, bound); err != nil {
		t.Fatal(err)
	}
	serverORB.Activate(key, servant)
	return serverORB, srv
}

// counts reports the pool's admitted-but-unfinished tasks, started
// workers and idle workers.
func (p *dispatchPool) counts() (pending, workers, idle int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending, p.workers, p.idle
}

// TestDispatchStormGoroutineCeiling throws ten thousand requests at a
// server whose worker pool is 8 deep and asserts the process-wide
// goroutine count stays bounded by senders + workers + connections +
// O(1) — the regression test for the unbounded per-request spawn.
func TestDispatchStormGoroutineCeiling(t *testing.T) {
	leak.Check(t)
	const maxDispatch = 8
	serverORB, srv := startTunedServer(t, "calc", calcServant{}, maxDispatch, 64)
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	// Warm the connection pool so dialing does not happen mid-storm.
	for i := 0; i < 8; i++ {
		if err := ref.InvokeContext(context.Background(), "square",
			func(e *cdr.Encoder) { e.WriteLong(3) },
			func(d *cdr.Decoder) error { _, err := d.ReadLong(); return err },
		); err != nil {
			t.Fatal(err)
		}
	}

	const senders = 16
	const total = 10000
	// Workers start on demand, so the warm-up started only some of
	// them: the baseline leaves them out and the ceiling counts all 8.
	_, started, _ := srv.pool.counts()
	base := runtime.NumGoroutine() - started
	// Everything the storm may legitimately add beyond the warm
	// baseline: the workers, the senders, the sampler, and headroom for
	// transient runtime helpers. The pre-pool server would exceed this
	// by thousands (one goroutine per queued request).
	ceiling := base + maxDispatch + senders + 1 + 16

	var peak atomic.Int64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < total/senders; i++ {
				// Oneways arrive as fast as the client can push them —
				// the worst case for a server that spawned per request.
				// The bounded queue may shed some under overload; the
				// test asserts the ceiling, not full delivery.
				if err := ref.InvokeOnewayContext(context.Background(), "square", func(e *cdr.Encoder) { e.WriteLong(int32(g + 2)) }); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if p := int(peak.Load()); p > ceiling {
		t.Fatalf("goroutine peak %d under %d-request storm exceeds ceiling %d (baseline %d + %d workers + %d senders + sampler + slack): dispatch is growing goroutines per request",
			p, total, ceiling, base, maxDispatch, senders)
	}
}

// TestDispatchOverflowAnswersTransient fills the (deliberately tiny)
// dispatch capacity with a parked call and verifies the next request is
// refused with CORBA::TRANSIENT — the standard retry-later signal —
// rather than queued without bound or left unanswered.
func TestDispatchOverflowAnswersTransient(t *testing.T) {
	leak.Check(t)
	park := &parkServant{parked: make(chan struct{}), cancelled: make(chan error, 1)}
	serverORB, _ := startTunedServer(t, "park", park, 1, -1) // one worker, unbuffered queue
	serverORB.Activate("calc", calcServant{})
	client := newClient(t)
	parkRef := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Park:1.0", "park"))
	calcRef := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- parkRef.InvokeContext(ctx, "park", nil, nil) }()
	select {
	case <-park.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("parked call never reached the servant")
	}

	// The only worker is parked and the queue holds nothing: this call
	// must come back refused, promptly.
	err := calcRef.InvokeContext(context.Background(), "square",
		func(e *cdr.Encoder) { e.WriteLong(3) },
		func(d *cdr.Decoder) error { _, err := d.ReadLong(); return err })
	var se *orb.SystemException
	if !errors.As(err, &se) || se.Name != "TRANSIENT" {
		t.Fatalf("overflowed call returned %v, want CORBA::TRANSIENT", err)
	}

	cancel() // release the parked servant
	select {
	case <-park.cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("parked servant never released")
	}
	if err := <-done; err == nil {
		t.Fatal("cancelled parked call reported success")
	}

	// With the worker free again the server must serve normally. The
	// released worker may not have freed its slot when the next request
	// lands, and TRANSIENT means "retry later": retry while it says so.
	var sq int32
	square := func() error {
		return calcRef.InvokeContext(context.Background(), "square",
			func(e *cdr.Encoder) { e.WriteLong(5) },
			func(d *cdr.Decoder) error {
				var err error
				sq, err = d.ReadLong()
				return err
			})
	}
	deadline := time.Now().Add(5 * time.Second)
	for err = square(); errors.As(err, &se) && se.Name == "TRANSIENT" && time.Now().Before(deadline); err = square() {
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	if sq != 25 {
		t.Fatalf("square(5) = %d after overflow recovery", sq)
	}
}

// gateServant holds every call until release is closed or the call is
// cancelled, announcing each arrival on arrived.
type gateServant struct {
	arrived chan struct{}
	release chan struct{}
}

func newGateServant() *gateServant {
	return &gateServant{arrived: make(chan struct{}, 64), release: make(chan struct{})}
}

func (*gateServant) RepositoryID() string { return "IDL:corbalc/test/Gate:1.0" }

func (s *gateServant) InvokeContext(ctx context.Context, _ string, _ *cdr.Decoder, reply *cdr.Encoder) error {
	s.arrived <- struct{}{}
	select {
	case <-s.release:
	case <-ctx.Done():
	}
	reply.WriteLong(1)
	return nil
}

// squareOf calls square(n) on ref and checks the answer.
func squareOf(ref *orb.ObjectRef, n int32) error {
	var sq int32
	err := ref.InvokeContext(context.Background(), "square",
		func(e *cdr.Encoder) { e.WriteLong(n) },
		func(d *cdr.Decoder) error {
			var err error
			sq, err = d.ReadLong()
			return err
		})
	if err == nil && sq != n*n {
		err = errors.New("square(" + strconv.Itoa(int(n)) + ") = " + strconv.Itoa(int(sq)))
	}
	return err
}

// TestDispatchQueueBound pins the admission rule with one worker and a
// queue of two: a parked call and two queued calls are accepted, the
// fourth is refused with TRANSIENT, and the queued two are answered once
// the parked call is released.
func TestDispatchQueueBound(t *testing.T) {
	leak.Check(t)
	gate := newGateServant()
	serverORB, srv := startTunedServer(t, "gate", gate, 1, 2)
	serverORB.Activate("calc", calcServant{})
	client := newClient(t)
	gateRef := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Gate:1.0", "gate"))
	calcRef := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	parked := make(chan error, 1)
	go func() { parked <- gateRef.InvokeContext(context.Background(), "hold", nil, nil) }()
	select {
	case <-gate.arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("parked call never reached the servant")
	}
	queued := make(chan error, 2)
	for n := int32(2); n <= 3; n++ {
		go func() { queued <- squareOf(calcRef, n) }()
	}
	waitUntil(t, "two queued calls", func() bool { pending, _, _ := srv.pool.counts(); return pending == 3 })

	var se *orb.SystemException
	if err := squareOf(calcRef, 4); !errors.As(err, &se) || se.Name != "TRANSIENT" {
		t.Fatalf("fourth call returned %v, want CORBA::TRANSIENT", err)
	}

	close(gate.release)
	if err := <-parked; err != nil {
		t.Fatalf("parked call: %v", err)
	}
	for range 2 {
		select {
		case err := <-queued:
			if err != nil {
				t.Fatalf("queued call: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued call never answered")
		}
	}
}

// TestDispatchWorkersStartOnDemand: N concurrent parked calls start
// min(N, maxDispatch) workers, and sequential calls afterwards reuse
// them instead of starting more.
func TestDispatchWorkersStartOnDemand(t *testing.T) {
	const maxDispatch = 4
	for _, n := range []int{3, 6} {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			leak.Check(t)
			gate := newGateServant()
			serverORB, srv := startTunedServer(t, "gate", gate, maxDispatch, 8)
			serverORB.Activate("calc", calcServant{})
			client := newClient(t)
			gateRef := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Gate:1.0", "gate"))
			calcRef := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))
			if _, workers, _ := srv.pool.counts(); workers != 0 {
				t.Fatalf("%d workers before the first request, want 0", workers)
			}

			parked := make(chan error, n)
			for range n {
				go func() { parked <- gateRef.InvokeContext(context.Background(), "hold", nil, nil) }()
			}
			waitUntil(t, "every call admitted", func() bool { pending, _, _ := srv.pool.counts(); return pending == n })
			want := min(n, maxDispatch)
			if _, workers, _ := srv.pool.counts(); workers != want {
				t.Fatalf("%d parked calls started %d workers, want %d", n, workers, want)
			}
			close(gate.release)
			for range n {
				if err := <-parked; err != nil {
					t.Fatal(err)
				}
			}

			for i := range int32(16) {
				// Each call arrives at an idle pool, as a sequential
				// caller's would once the previous worker is back.
				waitUntil(t, "idle workers", func() bool { _, workers, idle := srv.pool.counts(); return idle == workers })
				if err := squareOf(calcRef, i); err != nil {
					t.Fatal(err)
				}
			}
			if _, workers, _ := srv.pool.counts(); workers != want {
				t.Fatalf("sequential calls grew the pool from %d to %d workers", want, workers)
			}
		})
	}
}

// TestDispatchQueueStaysAtBacklog: a backlog that never drains keeps
// the queue near its size instead of growing with the traffic that
// passes through it.
func TestDispatchQueueStaysAtBacklog(t *testing.T) {
	p := &dispatchPool{bound: 3} // no workers: the test takes the tasks
	p.cond.L = &p.mu
	for range 2 {
		p.push(dispatchTask{})
	}
	for range 1000 {
		if !p.push(dispatchTask{}) {
			t.Fatal("push refused below the bound")
		}
		if _, ok := p.take(true); !ok {
			t.Fatal("take found the queue empty")
		}
	}
	if c := cap(p.queue); c > 8 {
		t.Fatalf("a backlog of 2 or 3 tasks grew the queue to %d slots", c)
	}
}

// TestIdleTransportFootprint pins what the transport holds before any
// backlog: a listening server starts no worker, and an idle connection
// costs its two read-ahead buffers and little else (about 70 KB, both
// ends, with 32 KiB read-ahead).
func TestIdleTransportFootprint(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow state distorts heap figures")
	}
	leak.Check(t)
	goroutines := runtime.NumGoroutine()
	serverORB, srv := startServer(t, "calc", calcServant{})
	if _, workers, _ := srv.pool.counts(); workers != 0 {
		t.Fatalf("idle server started %d workers, want 0", workers)
	}
	if extra := runtime.NumGoroutine() - goroutines; extra > 1 {
		t.Fatalf("idle server runs %d goroutines, want 1 (the accept loop)", extra)
	}

	const conns = 64
	const budget = 24 << 10
	tr := &Transport{}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle empties sync.Pool victims too
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	ccs := make([]*clientConn, conns)
	for i := range ccs {
		ccs[i] = dialRaw(t, serverORB, tr)
		// One round trip proves the server's read loop is up.
		reply, err := ccs[i].Call(context.Background(), rawRequest(t, uint32(i), "noop"), uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		reply.Release()
	}
	after := live()
	runtime.KeepAlive(ccs)
	per := int64(after-before) / conns
	if per > budget {
		t.Fatalf("an idle connection holds %d B live, both ends; budget %d", per, budget)
	}
	t.Logf("an idle connection holds %d B live, both ends", per)
}

// activate mirrors ListenAndActivate's endpoint registration for a
// server tuned before Listen.
func activate(o *orb.ORB, bound net.Addr) error {
	host, portStr, err := net.SplitHostPort(bound.String())
	if err != nil {
		return err
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return err
	}
	o.SetEndpoint(host, uint16(port))
	return nil
}
