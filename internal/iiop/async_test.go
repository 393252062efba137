package iiop

// Tests for the asynchronous invocation layer: true oneway semantics on
// the wire (ResponseExpected=false, no pending-map entry, SyncNone
// ownership transfer) and the AMI future path (CallAsync + Wait/Ready/
// Cancel), including the leak discipline for abandoned futures.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/giop"
	"corbalc/internal/leak"
	"corbalc/internal/orb"
)

// recordingServant signals every op it executes.
type recordingServant struct {
	ops chan string
}

func (recordingServant) RepositoryID() string { return "IDL:corbalc/test/Calc:1.0" }

func (s recordingServant) InvokeContext(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	select {
	case s.ops <- op:
	default:
	}
	if op == "square" {
		n, err := args.ReadLong()
		if err != nil {
			return err
		}
		reply.WriteLong(n * n)
	}
	return nil
}

// rawOneway builds a pooled GIOP 1.2 request frame with
// ResponseExpected=false, as InvokeOneway would emit it.
func rawOneway(t *testing.T, id uint32, op string) *giop.Message {
	t.Helper()
	e := giop.GetBodyEncoder(cdr.LittleEndian)
	err := giop.EncodeRequest(e, giop.V12, &giop.RequestHeader{
		RequestID:        id,
		ResponseExpected: false,
		ObjectKey:        []byte("calc"),
		Operation:        op,
	})
	if err != nil {
		e.Release()
		t.Fatal(err)
	}
	h := giop.Header{Version: giop.V12, Order: cdr.LittleEndian, Type: giop.MsgRequest}
	return giop.MessageFromEncoder(h, e)
}

// A SyncNone oneway hands the pooled frame to the write coalescer and
// registers nothing in the pending map: the request reaches the servant
// with no reply slot ever existing for it.
func TestOnewaySendOwnedNoPendingResidue(t *testing.T) {
	leak.Check(t)
	ops := make(chan string, 16)
	serverORB, _ := startServer(t, "calc", recordingServant{ops: ops})
	cc := dialRaw(t, serverORB, &Transport{})

	if err := cc.SendOwned(context.Background(), rawOneway(t, 1, "fire")); err != nil {
		t.Fatal(err)
	}
	select {
	case op := <-ops:
		if op != "fire" {
			t.Fatalf("servant ran %q, want fire", op)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("oneway never reached the servant")
	}
	if n := cc.pendingLen(); n != 0 {
		t.Fatalf("pending slots after oneway = %d, want 0", n)
	}
}

// The full orb stack: InvokeOneway must put ResponseExpected=false on
// the wire — observable because the server tallies a request in the
// oneway bucket only when the decoded header says no reply is expected —
// and SyncNone must do the same while transferring buffer ownership.
func TestOnewayWireSemanticsThroughORB(t *testing.T) {
	leak.Check(t)
	ops := make(chan string, 16)
	serverORB, _ := startServer(t, "calc", recordingServant{ops: ops})
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	if err := ref.InvokeOnewayContext(context.Background(), "fire", nil); err != nil {
		t.Fatal(err)
	}
	if err := ref.InvokeOnewayScoped(context.Background(), "fire", nil, orb.SyncNone); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-ops:
		case <-time.After(2 * time.Second):
			t.Fatalf("oneway %d never reached the servant", i)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, served := serverORB.Stats().Oneways(); served == 2 {
			break
		}
		if time.Now().After(deadline) {
			_, served := serverORB.Stats().Oneways()
			t.Fatalf("server oneway served = %d, want 2 (ResponseExpected=false not on the wire?)", served)
		}
		time.Sleep(time.Millisecond)
	}
	if sent, _ := client.Stats().Oneways(); sent != 2 {
		t.Fatalf("client oneway sent = %d, want 2", sent)
	}
	// Oneways count in the totals too.
	if sent := client.Stats().RequestsSent(); sent != 2 {
		t.Fatalf("client RequestsSent = %d, want 2", sent)
	}
}

// An async call resolves through Wait with the decoded reply, and the
// launch/settle counters bracket it.
func TestCallAsyncFutureOverTCP(t *testing.T) {
	leak.Check(t)
	serverORB, _ := startServer(t, "calc", calcServant{})
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	var sq int32
	fu, err := ref.CallAsyncContext(context.Background(), "square",
		func(e *cdr.Encoder) { e.WriteLong(12) },
		func(d *cdr.Decoder) error { var err error; sq, err = d.ReadLong(); return err })
	if err != nil {
		t.Fatal(err)
	}
	if err := fu.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sq != 144 {
		t.Fatalf("square = %d", sq)
	}
	if !fu.Done() || fu.Err() != nil {
		t.Fatalf("future state: done=%v err=%v", fu.Done(), fu.Err())
	}
	launched, settled := client.Stats().Async()
	if launched != 1 || settled != 1 {
		t.Fatalf("async counters = %d launched, %d settled", launched, settled)
	}
}

// Ready polls without blocking and eventually collects the reply.
func TestFutureReadyPolling(t *testing.T) {
	leak.Check(t)
	serverORB, _ := startServer(t, "calc", calcServant{sleep: 20 * time.Millisecond})
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	var sq int32
	fu, err := ref.CallAsyncContext(context.Background(), "square",
		func(e *cdr.Encoder) { e.WriteLong(5) },
		func(d *cdr.Decoder) error { var err error; sq, err = d.ReadLong(); return err })
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !fu.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("future never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	if fu.Err() != nil || sq != 25 {
		t.Fatalf("sq=%d err=%v", sq, fu.Err())
	}
}

// A Wait bounded by a context leaves the call in flight on expiry (the
// AMI polling model): a later unbounded Wait still collects the reply.
func TestFutureWaitDeadlineLeavesCallInFlight(t *testing.T) {
	leak.Check(t)
	serverORB, _ := startServer(t, "calc", calcServant{})
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	var out int32
	fu, err := ref.CallAsyncContext(context.Background(), "slow", nil, // servant sleeps 200ms
		func(d *cdr.Decoder) error { var err error; out, err = d.ReadLong(); return err })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	err = fu.Wait(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded Wait = %v, want context.DeadlineExceeded", err)
	}
	if fu.Done() {
		t.Fatal("ctx expiry resolved the future")
	}
	if err := fu.Wait(context.Background()); err != nil {
		t.Fatalf("second Wait: %v", err)
	}
	if out != 1 {
		t.Fatalf("slow reply = %d", out)
	}
}

// Cancel resolves the future promptly — it must not wait out the
// servant's 200ms — and frees the pending slot.
func TestFutureCancelPromptness(t *testing.T) {
	leak.Check(t)
	serverORB, _ := startServer(t, "calc", calcServant{})
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	fu, err := ref.CallAsyncContext(context.Background(), "slow", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	fu.Cancel()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Cancel took %v", d)
	}
	if !fu.Done() {
		t.Fatal("Cancel did not resolve the future")
	}
	if !errors.Is(fu.Err(), orb.ErrFutureCancelled) {
		t.Fatalf("Err = %v, want ErrFutureCancelled cause", fu.Err())
	}
	var se *orb.SystemException
	if !errors.As(fu.Err(), &se) || se.Name != "TIMEOUT" {
		t.Fatalf("Err = %v, want CORBA::TIMEOUT", fu.Err())
	}
	fu.Cancel() // idempotent

	// Cancelling while a Wait is blocked must interrupt it promptly too.
	fu2, err := ref.CallAsyncContext(context.Background(), "slow", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- fu2.Wait(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // let Wait park in Recv
	fu2.Cancel()
	select {
	case werr := <-waited:
		if !errors.Is(werr, orb.ErrFutureCancelled) {
			t.Fatalf("interrupted Wait = %v", werr)
		}
	case <-time.After(time.Second):
		t.Fatal("Cancel did not interrupt the blocked Wait")
	}
}

// An async storm where many futures are abandoned mid-flight must not
// wedge the multiplexed connection, leak pending slots, or leak the
// goroutines/buffers behind them.
func TestAsyncStormAbandonedFuturesLeakFree(t *testing.T) {
	leak.Check(t)
	serverORB, _ := startServer(t, "calc", calcServant{sleep: time.Millisecond})
	cc := dialRaw(t, serverORB, &Transport{})

	const calls = 200
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		id := uint32(i + 1)
		pr, err := cc.CallAsync(context.Background(), rawRequest(t, id, "square"), id)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			// Abandon half the calls immediately: raced replies must be
			// released, not pinned in reply channels.
			pr.Abandon()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := pr.Recv(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			m.Release()
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for cc.pendingLen() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pending slots after storm = %d, want 0", cc.pendingLen())
		}
		time.Sleep(time.Millisecond)
	}
	// The connection is still usable.
	reply, err := cc.Call(context.Background(), rawRequest(t, 9999, "square"), 9999)
	if err != nil {
		t.Fatalf("post-storm call: %v", err)
	}
	if id, _ := giop.PeekRequestID(reply); id != 9999 {
		t.Fatalf("post-storm reply ID = %d", id)
	}
}

// Futures over the orb layer, abandoned at every stage, stay leak-free
// and keep the stats bracketed (every launch eventually settles).
func TestAsyncStormThroughORB(t *testing.T) {
	leak.Check(t)
	serverORB, _ := startServer(t, "calc", calcServant{})
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	const calls = 64
	futures := make([]*orb.Future, 0, calls)
	for i := 0; i < calls; i++ {
		fu, err := ref.CallAsyncContext(context.Background(), "square",
			func(e *cdr.Encoder) { e.WriteLong(int32(i)) },
			func(d *cdr.Decoder) error { _, err := d.ReadLong(); return err })
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, fu)
	}
	for i, fu := range futures {
		if i%3 == 0 {
			fu.Cancel()
		} else if err := fu.Wait(context.Background()); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	launched, settled := client.Stats().Async()
	if launched != calls || settled != calls {
		t.Fatalf("async counters = %d launched, %d settled, want %d/%d", launched, settled, calls, calls)
	}
}

// A collocated (same-ORB) async call resolves synchronously at launch.
func TestCallAsyncCollocated(t *testing.T) {
	leak.Check(t)
	o := orb.NewORB()
	defer o.Shutdown()
	o.Activate("calc", calcServant{})
	ref := o.NewRef(o.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	var sq int32
	fu, err := ref.CallAsyncContext(context.Background(), "square",
		func(e *cdr.Encoder) { e.WriteLong(9) },
		func(d *cdr.Decoder) error { var err error; sq, err = d.ReadLong(); return err })
	if err != nil {
		t.Fatal(err)
	}
	if !fu.Done() {
		t.Fatal("collocated future not resolved at launch")
	}
	if err := fu.Wait(context.Background()); err != nil || sq != 81 {
		t.Fatalf("sq=%d err=%v", sq, err)
	}
}

// Async calls surface servant exceptions through the future.
func TestCallAsyncUserException(t *testing.T) {
	leak.Check(t)
	serverORB, _ := startServer(t, "calc", calcServant{})
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	fu, err := ref.CallAsyncContext(context.Background(), "boom", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = fu.Wait(context.Background())
	var ue *orb.UserException
	if !errors.As(err, &ue) || ue.ID != "IDL:corbalc/test/Overflow:1.0" {
		t.Fatalf("err = %v", err)
	}
}

// The async counters bracket every future exactly once: one launch and
// one settlement each, a cancelled future included.
func TestAsyncStatsBracketing(t *testing.T) {
	leak.Check(t)
	serverORB, _ := startServer(t, "calc", calcServant{})
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	fu, err := ref.CallAsyncContext(context.Background(), "square",
		func(e *cdr.Encoder) { e.WriteLong(4) },
		func(d *cdr.Decoder) error { _, err := d.ReadLong(); return err })
	if err != nil {
		t.Fatal(err)
	}
	if err := fu.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	fu2, err := ref.CallAsyncContext(context.Background(), "slow", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fu2.Cancel()

	if launched, settled := client.Stats().Async(); launched != 2 || settled != 2 {
		t.Fatalf("async launched %d, settled %d; want 2/2", launched, settled)
	}
}
