package iiop

// Regression tests for the bounded-dispatch layer: the server used to
// spawn one goroutine per request (go handleRequest(...) straight from
// the read loop), so a request storm grew the process by thousands of
// goroutines. Dispatch now runs on a fixed worker pool fed by a bounded
// queue; these tests pin the goroutine ceiling and the overflow
// behaviour (GIOP TRANSIENT, not queue growth).

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/leak"
	"corbalc/internal/orb"
)

// startTunedServer is startServer with dispatch knobs, which must be
// set before Listen.
func startTunedServer(t testing.TB, key string, servant orb.Servant, maxDispatch, queue int) (*orb.ORB, *Server) {
	t.Helper()
	serverORB := orb.NewORB()
	srv := NewServer(serverORB)
	srv.MaxDispatch = maxDispatch
	srv.DispatchQueue = queue
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

// TestDispatchStormGoroutineCeiling throws ten thousand requests at a
// server whose worker pool is 8 deep and asserts the process-wide
// goroutine count stays bounded by senders + workers + connections +
// O(1) — the regression test for the unbounded per-request spawn.
func TestDispatchStormGoroutineCeiling(t *testing.T) {
	leak.Check(t)
	serverORB, _ := startTunedServer(t, "calc", calcServant{}, 8, 64)
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
	base := runtime.NumGoroutine()
	// Everything the storm may legitimately add beyond the warm
	// baseline: the senders, the sampler, and headroom for transient
	// runtime helpers. The pre-pool server would exceed this by
	// thousands (one goroutine per queued request).
	ceiling := base + senders + 1 + 16

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
		t.Fatalf("goroutine peak %d under %d-request storm exceeds ceiling %d (baseline %d + %d senders + sampler + slack): dispatch is growing goroutines per request",
			p, total, ceiling, base, senders)
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
