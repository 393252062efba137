package iiop

// Failover test for the striped connection pool: killing one stripe's
// TCP connection mid-storm must (1) fail the calls in flight on that
// stripe with a retriable system exception, (2) leave every call that
// succeeded with a correct, un-misrouted reply, and (3) let later calls
// redistribute over the surviving stripes and a lazily redialled
// replacement.

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/leak"
	"corbalc/internal/orb"
)

// slowCalcServant squares with a small delay, widening the in-flight
// window so a mid-storm connection kill reliably catches calls on the
// wire.
type slowCalcServant struct{}

func (slowCalcServant) RepositoryID() string { return "IDL:corbalc/test/Calc:1.0" }

func (slowCalcServant) InvokeContext(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	if op != "square" {
		return orb.BadOperation()
	}
	n, err := args.ReadLong()
	if err != nil {
		return err
	}
	time.Sleep(2 * time.Millisecond)
	reply.WriteLong(n * n)
	return nil
}

// connCount reports the server's live connection count.
func (s *Server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// killOneConn closes one live server-side connection, simulating a
// stripe failure the client did not initiate.
func (s *Server) killOneConn() bool {
	s.mu.Lock()
	var victim net.Conn
	for c := range s.conns {
		victim = c
		break
	}
	s.mu.Unlock()
	if victim == nil {
		return false
	}
	_ = victim.Close()
	return true
}

func TestPoolFailoverRedistributesAndRecovers(t *testing.T) {
	leak.Check(t)
	serverORB, srv := startServer(t, "calc", slowCalcServant{})
	client := orb.NewORB()
	client.RegisterTransport(&Transport{CallTimeout: 5 * time.Second, PoolSize: 4})
	t.Cleanup(client.Shutdown)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	square := func(n int32) error {
		var sq int32
		err := ref.InvokeContext(context.Background(), "square",
			func(e *cdr.Encoder) { e.WriteLong(n) },
			func(d *cdr.Decoder) error {
				var err error
				sq, err = d.ReadLong()
				return err
			})
		if err == nil && sq != n*n {
			t.Errorf("square(%d) = %d: reply misrouted across stripes", n, sq)
		}
		return err
	}

	// Warm the pool. Stripe selection is processor-affine, so the
	// number of stripes dialed equals the number of cores that have
	// carried calls — anywhere from one (GOMAXPROCS=1) to four.
	for i := 0; i < 8; i++ {
		if err := square(int32(i + 2)); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.connCount(); n < 1 || n > 4 {
		t.Fatalf("server sees %d connections after warmup, want 1..4 (affine stripes)", n)
	}

	const callers = 16
	const perCaller = 40
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []error
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if err := square(int32(g*100 + i + 2)); err != nil {
					mu.Lock()
					failures = append(failures, err)
					mu.Unlock()
				}
			}
		}(g)
	}
	// Let the storm get airborne, then kill one stripe under it.
	time.Sleep(20 * time.Millisecond)
	if !srv.killOneConn() {
		t.Error("no server connection to kill")
	}
	wg.Wait()

	// Calls in flight on the killed stripe fail with a retriable
	// system exception (COMM_FAILURE completed-maybe, or TIMEOUT if the
	// reply was lost); anything else — or a wrong square, checked
	// inside square() — is a routing or pooling bug.
	for _, err := range failures {
		var se *orb.SystemException
		if !errors.As(err, &se) {
			t.Fatalf("mid-storm failure not a system exception: %v", err)
		}
		if se.Name != "COMM_FAILURE" && se.Name != "TIMEOUT" {
			t.Fatalf("mid-storm failure %v, want retriable COMM_FAILURE or TIMEOUT", err)
		}
	}
	t.Logf("storm: %d/%d calls failed retriably at stripe kill", len(failures), callers*perCaller)

	// The pool evicted the dead stripe; subsequent calls fail over to a
	// survivor (rebinding the core's affinity hint) or lazily redial
	// the empty slot — either way they must all succeed.
	for i := 0; i < 12; i++ {
		if err := square(int32(i + 50)); err != nil {
			t.Fatalf("call %d after failover: %v", i, err)
		}
	}
	if n := srv.connCount(); n < 1 {
		t.Fatalf("server sees %d connections after recovery, want at least 1", n)
	}
}
