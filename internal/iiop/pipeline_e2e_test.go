package iiop

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/orb"
	"corbalc/internal/svcctx"
)

// dispatchSeen is what a servant observed of one dispatch through its
// context alone: the operation, the call ID and the deadline.
type dispatchSeen struct {
	op       string
	callID   string
	deadline time.Time
}

// nextSeen returns the servant's next recorded dispatch.
func nextSeen(t *testing.T, seen <-chan dispatchSeen) dispatchSeen {
	t.Helper()
	select {
	case s := <-seen:
		return s
	case <-time.After(2 * time.Second):
		t.Fatal("servant never saw the call")
		return dispatchSeen{}
	}
}

// The full invocation pipeline over real IIOP: the client's context
// deadline and call ID travel in service contexts and reach the servant
// through its own context, deadline expiry surfaces as CORBA::TIMEOUT at
// the client, and the CancelRequest emitted on the wire reaches the
// in-flight servant as context cancellation.
func TestE2EContextPipeline(t *testing.T) {
	// Room for every dispatch the test makes, so the servant never
	// blocks on a record the test has not read yet.
	seen := make(chan dispatchSeen, 8)
	observedCause := make(chan error, 1)
	servant := servantFunc{
		RepoID: "IDL:corbalc/test/Calc:1.0",
		Fn: func(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
			dl, _ := ctx.Deadline()
			seen <- dispatchSeen{op: op, callID: svcctx.CallID(ctx), deadline: dl}
			switch op {
			case "echo":
				n, err := args.ReadLong()
				if err != nil {
					return err
				}
				reply.WriteLong(n)
				return nil
			case "block":
				select {
				case <-ctx.Done():
					observedCause <- context.Cause(ctx)
					return orb.Timeout()
				case <-time.After(5 * time.Second):
					observedCause <- nil
					reply.WriteLong(0)
					return nil
				}
			}
			return orb.BadOperation()
		},
	}
	serverORB, _ := startServer(t, "calc", servant)

	client := newClient(t)
	ref, err := client.ResolveStr(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc").String())
	if err != nil {
		t.Fatal(err)
	}
	echo := func(e *cdr.Encoder) { e.WriteLong(7) }
	readEcho := func(d *cdr.Decoder) error { _, err := d.ReadLong(); return err }

	// A successful bounded call with an explicit call ID: the servant
	// sees the caller's ID and deadline.
	ctx, cancel := context.WithTimeout(svcctx.WithCallID(context.Background(), "e2e-explicit-1"), 3*time.Second)
	defer cancel()
	if err := ref.InvokeContext(ctx, "echo", echo, readEcho); err != nil {
		t.Fatal(err)
	}
	got := nextSeen(t, seen)
	if got.op != "echo" || got.callID != "e2e-explicit-1" {
		t.Fatalf("servant saw %q with call ID %q, want echo with e2e-explicit-1", got.op, got.callID)
	}
	// The deadline travels in microseconds.
	if want, _ := ctx.Deadline(); got.deadline.IsZero() || want.Sub(got.deadline) < 0 || want.Sub(got.deadline) >= time.Microsecond {
		t.Fatalf("servant saw deadline %v, want the client's %v", got.deadline, want)
	}

	// Without an ID the client mints one per call: the servant sees a
	// non-empty ID, distinct across two calls, and no deadline.
	var minted [2]string
	for i := range minted {
		if err := ref.InvokeContext(context.Background(), "echo", echo, readEcho); err != nil {
			t.Fatal(err)
		}
		got := nextSeen(t, seen)
		if got.callID == "" {
			t.Fatal("unbounded call reached the servant without a call ID")
		}
		if !got.deadline.IsZero() {
			t.Fatalf("unbounded call reached the servant with deadline %v", got.deadline)
		}
		minted[i] = got.callID
	}
	if minted[0] == minted[1] {
		t.Fatalf("two calls minted the same call ID %q", minted[0])
	}

	// Deadline expiry mid-call: CORBA::TIMEOUT at the client (with the
	// context cause preserved), CancelRequest on the wire, and the
	// servant sees its context cancelled by the peer.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	err = ref.InvokeContext(ctx2, "block", nil, func(d *cdr.Decoder) error { return nil })
	var sysErr *orb.SystemException
	if !errors.As(err, &sysErr) || sysErr.Name != "TIMEOUT" {
		t.Fatalf("expired call err = %v, want CORBA::TIMEOUT", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired call err = %v, want wrapped context.DeadlineExceeded", err)
	}
	nextSeen(t, seen)
	select {
	case cause := <-observedCause:
		// Two correct cancellation paths race here: the propagated
		// SvcDeadline expires the server-derived context locally, and the
		// client's CancelRequest cancels it from the wire. Either way the
		// servant must observe a cancelled context.
		if cause == nil {
			t.Fatal("servant ran to completion; cancellation never reached it")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("servant never observed cancellation")
	}

	// Explicit cancellation with no deadline: the only way the servant's
	// context can end is the CancelRequest arriving on the wire, so the
	// recorded cause must be the peer-cancel cause.
	ctx3, cancel3 := context.WithCancel(context.Background())
	callErr := make(chan error, 1)
	go func() {
		callErr <- ref.InvokeContext(ctx3, "block", nil, func(d *cdr.Decoder) error { return nil })
	}()
	nextSeen(t, seen) // the call is in flight server-side
	cancel3()
	if err := <-callErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call err = %v, want wrapped context.Canceled", err)
	}
	select {
	case cause := <-observedCause:
		if cause == nil || !strings.Contains(cause.Error(), "cancelled by peer") {
			t.Fatalf("servant cancellation cause = %v, want the peer-cancel cause", cause)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("servant never observed the CancelRequest")
	}

	// The pipeline stays healthy after a cancelled in-flight call.
	if err := ref.InvokeContext(context.Background(), "echo", echo, readEcho); err != nil {
		t.Fatalf("follow-up call after cancellation: %v", err)
	}
}

// The per-ORB Stats counters aggregate both directions of traffic,
// errors included.
func TestE2EStatsCounters(t *testing.T) {
	serverORB, _ := startServer(t, "calc", calcServant{})
	client := newClient(t)
	ref, err := client.ResolveStr(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc").String())
	if err != nil {
		t.Fatal(err)
	}
	const calls = 3
	for i := 0; i < calls; i++ {
		if err := ref.InvokeContext(context.Background(), "square",
			func(e *cdr.Encoder) { e.WriteLong(int32(i)) },
			func(d *cdr.Decoder) error { _, err := d.ReadLong(); return err }); err != nil {
			t.Fatal(err)
		}
	}
	var ue *orb.UserException
	if err := ref.InvokeContext(context.Background(), "boom", nil, nil); !errors.As(err, &ue) || ue.ID != "IDL:corbalc/test/Overflow:1.0" {
		t.Fatalf("boom err = %v, want the Overflow user exception", err)
	}
	if got := serverORB.Stats().RequestsServed(); got != calls+1 {
		t.Fatalf("server RequestsServed = %d, want %d", got, calls+1)
	}
	if sent, _ := client.Stats().Errors(); sent != 1 {
		t.Fatalf("client sent errors = %d, want 1", sent)
	}
	if _, served := serverORB.Stats().Errors(); served != 1 {
		t.Fatalf("server served errors = %d, want 1", served)
	}
}
