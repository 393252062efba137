package iiop

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/giop"
	"corbalc/internal/orb"
	"corbalc/internal/race"
	"corbalc/internal/svcctx"
)

// servantFunc adapts a function (plus repository ID) to the Servant
// interface, for small single-purpose test servants.
type servantFunc struct {
	RepoID string
	Fn     func(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error
}

func (s servantFunc) RepositoryID() string { return s.RepoID }

func (s servantFunc) InvokeContext(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	return s.Fn(ctx, op, args, reply)
}

type calcServant struct{ sleep time.Duration }

func (calcServant) RepositoryID() string { return "IDL:corbalc/test/Calc:1.0" }

func (s calcServant) InvokeContext(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	switch op {
	case "square":
		n, err := args.ReadLong()
		if err != nil {
			return err
		}
		if s.sleep > 0 {
			time.Sleep(s.sleep)
		}
		reply.WriteLong(n * n)
		return nil
	case "slow":
		time.Sleep(200 * time.Millisecond)
		reply.WriteLong(1)
		return nil
	case "boom":
		return &orb.UserException{ID: "IDL:corbalc/test/Overflow:1.0"}
	}
	return orb.BadOperation()
}

// startServer launches an ORB + IIOP server pair; the cleanup closes it.
func startServer(t testing.TB, servantKey string, s orb.Servant) (*orb.ORB, *Server) {
	t.Helper()
	serverORB := orb.NewORB()
	srv, err := ListenAndActivate(serverORB, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	serverORB.Activate(servantKey, s)
	return serverORB, srv
}

func newClient(t testing.TB, opts ...orb.Option) *orb.ORB {
	t.Helper()
	c := orb.NewORB(opts...)
	c.RegisterTransport(&Transport{CallTimeout: 5 * time.Second})
	t.Cleanup(c.Shutdown)
	return c
}

func TestEndToEndOverTCP(t *testing.T) {
	serverORB, _ := startServer(t, "calc", calcServant{})
	iorStr := serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc").String()

	client := newClient(t)
	ref, err := client.ResolveStr(iorStr)
	if err != nil {
		t.Fatal(err)
	}
	var sq int32
	err = ref.InvokeContext(context.Background(), "square",
		func(e *cdr.Encoder) { e.WriteLong(12) },
		func(d *cdr.Decoder) error {
			var err error
			sq, err = d.ReadLong()
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if sq != 144 {
		t.Fatalf("square = %d", sq)
	}
}

func TestEndToEndGIOP10BigEndian(t *testing.T) {
	serverORB, _ := startServer(t, "calc", calcServant{})
	iorStr := serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc").String()

	client := newClient(t, orb.WithGIOPVersion(giop.V10), orb.WithByteOrder(cdr.BigEndian))
	ref, err := client.ResolveStr(iorStr)
	if err != nil {
		t.Fatal(err)
	}
	var sq int32
	err = ref.InvokeContext(context.Background(), "square",
		func(e *cdr.Encoder) { e.WriteLong(9) },
		func(d *cdr.Decoder) error {
			var err error
			sq, err = d.ReadLong()
			return err
		})
	if err != nil || sq != 81 {
		t.Fatalf("sq=%d err=%v", sq, err)
	}
}

func TestUserExceptionOverTCP(t *testing.T) {
	serverORB, _ := startServer(t, "calc", calcServant{})
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))
	err := ref.InvokeContext(context.Background(), "boom", nil, nil)
	var ue *orb.UserException
	if !errors.As(err, &ue) || ue.ID != "IDL:corbalc/test/Overflow:1.0" {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentCallsMultiplexed(t *testing.T) {
	serverORB, _ := startServer(t, "calc", calcServant{sleep: 2 * time.Millisecond})
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int32(1); i <= 8; i++ {
				n := int32(g)*100 + i
				var sq int32
				err := ref.InvokeContext(context.Background(), "square",
					func(e *cdr.Encoder) { e.WriteLong(n) },
					func(d *cdr.Decoder) error {
						var err error
						sq, err = d.ReadLong()
						return err
					})
				if err != nil {
					errs <- err
					return
				}
				if sq != n*n {
					errs <- fmt.Errorf("square(%d) = %d", n, sq)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All 128 calls must have flowed through a single multiplexed
	// connection (one cached channel per endpoint).
	if got := serverORB.RequestsServed(); got != 128 {
		t.Fatalf("served = %d", got)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	serverORB, srv := startServer(t, "calc", calcServant{})
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	// Prime the connection.
	if err := ref.InvokeContext(context.Background(), "square", func(e *cdr.Encoder) { e.WriteLong(2) }, func(d *cdr.Decoder) error {
		_, err := d.ReadLong()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	err := ref.InvokeContext(context.Background(), "square", func(e *cdr.Encoder) { e.WriteLong(3) }, nil)
	var se *orb.SystemException
	if !errors.As(err, &se) {
		t.Fatalf("err after close = %v", err)
	}
}

func TestCallTimeout(t *testing.T) {
	serverORB, _ := startServer(t, "calc", calcServant{})
	client := orb.NewORB()
	client.RegisterTransport(&Transport{CallTimeout: 30 * time.Millisecond})
	t.Cleanup(client.Shutdown)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))
	err := ref.InvokeContext(context.Background(), "slow", nil, nil)
	var se *orb.SystemException
	if !errors.As(err, &se) {
		t.Fatalf("err = %v", err)
	}
	// The slow reply arriving later must not corrupt a subsequent call.
	time.Sleep(250 * time.Millisecond)
	var sq int32
	if err := ref.InvokeContext(context.Background(), "square", func(e *cdr.Encoder) { e.WriteLong(4) }, func(d *cdr.Decoder) error {
		var err error
		sq, err = d.ReadLong()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if sq != 16 {
		t.Fatalf("square = %d", sq)
	}
}

func TestDialFailure(t *testing.T) {
	client := newClient(t)
	// Port 1 on loopback is almost certainly closed.
	ref, err := client.ResolveStr("corbaloc::127.0.0.1:1/nothing")
	if err != nil {
		t.Fatal(err)
	}
	callErr := ref.InvokeContext(context.Background(), "op", nil, nil)
	var se *orb.SystemException
	if !errors.As(callErr, &se) || se.Name != "COMM_FAILURE" {
		t.Fatalf("err = %v", callErr)
	}
}

func TestOnewayOverTCP(t *testing.T) {
	serverORB, _ := startServer(t, "calc", calcServant{})
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))
	if err := ref.InvokeOnewayContext(context.Background(), "square", func(e *cdr.Encoder) { e.WriteLong(3) }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for serverORB.RequestsServed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("oneway request never served")
		}
		time.Sleep(time.Millisecond)
	}
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	serverORB := orb.NewORB()
	srv, err := ListenAndActivate(serverORB, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	serverORB.Activate("calc", calcServant{})

	client := orb.NewORB()
	client.RegisterTransport(&Transport{})
	defer client.Shutdown()
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := ref.InvokeContext(context.Background(), "square",
			func(e *cdr.Encoder) { e.WriteLong(7) },
			func(d *cdr.Decoder) error { _, err := d.ReadLong(); return err })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// tcpRoundTripAllocBudget is the allocation ceiling for one `square`
// round trip over loopback, client and server together, after warm-up.
// When it was recorded the path measured 0 with one caller, and 0 with
// parallel callers at every core count from 1 to 8 (the seed took 37).
const tcpRoundTripAllocBudget = 2

// tcpBoundedRoundTripAllocBudget is the ceiling for the same round trip
// when the caller's context carries a deadline and a call ID. Encoding
// SvcDeadline and the server's context.WithDeadline account for what
// it measures: 8 when recorded, 11 while the server derived that
// context twice.
const tcpBoundedRoundTripAllocBudget = 9

// TestTCPRoundTripAllocBudget holds the TCP invocation path to its
// budget with one caller and with 8 parallel callers: the sharded hot
// path may not pay for its parallelism in allocations. A caller with a
// deadline and a call ID is held to its own budget.
func TestTCPRoundTripAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool randomly drops items under the race detector; alloc counts are not stable")
	}
	serverORB, _ := startServer(t, "calc", calcServant{})
	ref := newClient(t).NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))
	squareCtx := func(ctx context.Context) error {
		return ref.InvokeContext(ctx, "square",
			func(e *cdr.Encoder) { e.WriteLong(7) },
			func(d *cdr.Decoder) error { _, err := d.ReadLong(); return err })
	}
	square := func() error { return squareCtx(context.Background()) }
	call := func() {
		if err := square(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // warm every pool on the path
		call()
	}
	if allocs := testing.AllocsPerRun(1000, call); allocs > tcpRoundTripAllocBudget {
		t.Errorf("one caller: %.1f allocs per round trip, budget %d", allocs, tcpRoundTripAllocBudget)
	}

	bctx, cancel := context.WithTimeout(svcctx.WithCallID(context.Background(), "alloc-budget-1"), time.Hour)
	defer cancel()
	bounded := func() {
		if err := squareCtx(bctx); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, bounded); allocs > tcpBoundedRoundTripAllocBudget {
		t.Errorf("deadline and call ID: %.1f allocs per round trip, budget %d", allocs, tcpBoundedRoundTripAllocBudget)
	}

	const callers = 8
	errs := make(chan error, 1)
	res := testing.Benchmark(func(b *testing.B) {
		procs := runtime.GOMAXPROCS(0)
		b.SetParallelism((callers + procs - 1) / procs)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := square(); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		})
	})
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if allocs := res.AllocsPerOp(); allocs > tcpRoundTripAllocBudget {
		t.Errorf("%d parallel callers: %d allocs per round trip, budget %d", callers, allocs, tcpRoundTripAllocBudget)
	}
}

func BenchmarkTCPConcurrent(b *testing.B) {
	serverORB := orb.NewORB()
	srv, err := ListenAndActivate(serverORB, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	serverORB.Activate("calc", calcServant{})

	client := orb.NewORB()
	client.RegisterTransport(&Transport{})
	defer client.Shutdown()
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			err := ref.InvokeContext(context.Background(), "square",
				func(e *cdr.Encoder) { e.WriteLong(7) },
				func(d *cdr.Decoder) error { _, err := d.ReadLong(); return err })
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// blobServant echoes large payloads, for the fragmentation tests.
type blobServant struct{}

func (blobServant) RepositoryID() string { return "IDL:corbalc/test/Blob:1.0" }

func (blobServant) InvokeContext(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	switch op {
	case "echo_blob":
		b, err := args.ReadOctetSeq()
		if err != nil {
			return err
		}
		reply.WriteOctetSeq(b)
		return nil
	case "make_blob":
		n, err := args.ReadLong()
		if err != nil {
			return err
		}
		blob := make([]byte, n)
		for i := range blob {
			blob[i] = byte(i)
		}
		reply.WriteOctetSeq(blob)
		return nil
	}
	return orb.BadOperation()
}

func TestFragmentedTransfersOverTCP(t *testing.T) {
	serverORB := orb.NewORB()
	srv, err := ListenAndActivate(serverORB, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	serverORB.Activate("blob", blobServant{})

	client := orb.NewORB()
	client.RegisterTransport(&Transport{CallTimeout: 10 * time.Second})
	defer client.Shutdown()
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Blob:1.0", "blob"))

	// A request body of three fragments echoed back, fragmented on the
	// way out and on the way home.
	payload := make([]byte, 2*maxFragment+100)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	err = ref.InvokeContext(context.Background(), "echo_blob",
		func(e *cdr.Encoder) { e.WriteOctetSeq(payload) },
		func(d *cdr.Decoder) error { var e error; got, e = d.ReadOctetSeq(); return e })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("echo = %d bytes, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}

	// Concurrent replies of two fragments each interleave on one
	// connection.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(n int32) {
			defer wg.Done()
			var blob []byte
			err := ref.InvokeContext(context.Background(), "make_blob",
				func(e *cdr.Encoder) { e.WriteLong(n) },
				func(d *cdr.Decoder) error { var e error; blob, e = d.ReadOctetSeq(); return e })
			if err != nil {
				errs <- err
				return
			}
			if int32(len(blob)) != n {
				errs <- fmt.Errorf("blob = %d bytes, want %d", len(blob), n)
				return
			}
			for i := range blob {
				if blob[i] != byte(i) {
					errs <- fmt.Errorf("blob %d corrupt at %d", n, i)
					return
				}
			}
		}(int32(maxFragment + 8<<10 + g*4096))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Connection establishment was bounded by an option nothing set; it is
// fixed at the value that was its default.
func TestDialBoundPinned(t *testing.T) {
	if dialTimeout != 5*time.Second {
		t.Fatalf("dialTimeout = %v, want 5s", dialTimeout)
	}
}
