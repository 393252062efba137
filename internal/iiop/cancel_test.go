package iiop

import (
	"context"
	"errors"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/giop"
	"corbalc/internal/ior"
	"corbalc/internal/orb"
)

func TestEffectiveCallTimeout(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want time.Duration
	}{
		{0, DefaultCallTimeout},            // zero means the documented default
		{-1, 0},                            // negative disables the safety net
		{-time.Hour, 0},                    // any negative value disables it
		{3 * time.Second, 3 * time.Second}, // positive taken literally
	}
	for _, tc := range cases {
		tr := &Transport{CallTimeout: tc.in}
		if got := tr.effectiveCallTimeout(); got != tc.want {
			t.Errorf("effectiveCallTimeout(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// dialRaw connects a bare clientConn to the server ORB's IIOP endpoint so
// tests can inspect the pending map directly.
func dialRaw(t *testing.T, serverORB *orb.ORB, tr *Transport) *clientConn {
	t.Helper()
	ref := serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc")
	p := ref.Profile(ior.TagInternetIOP)
	if p == nil {
		t.Fatal("server IOR carries no IIOP profile")
	}
	ch, err := tr.Dial(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cc := ch.(*clientConn)
	t.Cleanup(func() { _ = cc.Close() })
	return cc
}

// rawRequest builds a GIOP 1.2 request for an argument-less operation.
func rawRequest(t *testing.T, id uint32, op string) *giop.Message {
	t.Helper()
	e := giop.NewBodyEncoder(cdr.LittleEndian)
	err := giop.EncodeRequest(e, giop.V12, &giop.RequestHeader{
		RequestID:        id,
		ResponseExpected: true,
		ObjectKey:        []byte("calc"),
		Operation:        op,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &giop.Message{
		Header: giop.Header{Version: giop.V12, Order: cdr.LittleEndian, Type: giop.MsgRequest},
		Body:   e.Bytes(),
	}
}

func (c *clientConn) pendingLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// A cancelled call must free its pending slot immediately (no map leak)
// and leave the multiplexed connection usable for later calls, with the
// late reply for the cancelled request silently discarded.
func TestCancelFreesPendingSlotAndLateReplyDiscarded(t *testing.T) {
	serverORB, _ := startServer(t, "calc", calcServant{})
	cc := dialRaw(t, serverORB, &Transport{})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, err := cc.Call(ctx, rawRequest(t, 1, "slow"), 1) // servant sleeps 200ms
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := cc.pendingLen(); n != 0 {
		t.Fatalf("pending slots after cancel = %d, want 0", n)
	}

	// The same connection keeps working: the late "slow" reply (due in
	// ~170ms) must be dropped by the read loop, not delivered to this
	// call or wedging the mux.
	reply, err := cc.Call(context.Background(), rawRequest(t, 2, "slow"), 2)
	if err != nil {
		t.Fatalf("second call on same conn: %v", err)
	}
	var hdrID uint32
	if hdrID, _ = giop.PeekRequestID(reply); hdrID != 2 {
		t.Fatalf("reply request ID = %d, want 2", hdrID)
	}
	if n := cc.pendingLen(); n != 0 {
		t.Fatalf("pending slots after completed call = %d, want 0", n)
	}
}

// The CallTimeout safety net must also free the slot (and keep the
// connection usable), returning CORBA::TIMEOUT rather than a ctx error.
func TestCallTimeoutFreesPendingSlot(t *testing.T) {
	serverORB, _ := startServer(t, "calc", calcServant{})
	cc := dialRaw(t, serverORB, &Transport{CallTimeout: 30 * time.Millisecond})

	_, err := cc.Call(context.Background(), rawRequest(t, 1, "slow"), 1)
	var sysErr *orb.SystemException
	if !errors.As(err, &sysErr) || sysErr.Name != "TIMEOUT" {
		t.Fatalf("err = %v, want CORBA::TIMEOUT", err)
	}
	if n := cc.pendingLen(); n != 0 {
		t.Fatalf("pending slots after timeout = %d, want 0", n)
	}
}

// A GIOP CancelRequest must reach the in-flight servant as context
// cancellation, and the server must not write a reply for the cancelled
// request.
func TestServerHonorsCancelRequest(t *testing.T) {
	started := make(chan struct{}, 1)
	observed := make(chan error, 1)
	servant := servantFunc{
		RepoID: "IDL:corbalc/test/Calc:1.0",
		Fn: func(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
			started <- struct{}{}
			select {
			case <-ctx.Done():
				observed <- context.Cause(ctx)
				return orb.Timeout()
			case <-time.After(2 * time.Second):
				observed <- nil
				reply.WriteLong(1)
				return nil
			}
		},
	}
	serverORB, _ := startServer(t, "calc", servant)
	cc := dialRaw(t, serverORB, &Transport{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cc.Call(ctx, rawRequest(t, 7, "block"), 7)
		done <- err
	}()
	<-started // servant is in-flight
	cancel()  // emits CancelRequest on the wire

	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want context.Canceled", err)
	}
	select {
	case cause := <-observed:
		if cause == nil {
			t.Fatal("servant timed out instead of observing cancellation")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("servant never observed cancellation")
	}

	// The server must have skipped the reply: a follow-up call gets its
	// own answer, not a stale error reply for request 7.
	fast := servantFunc{
		RepoID: "IDL:corbalc/test/Calc:1.0",
		Fn: func(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
			reply.WriteLong(42)
			return nil
		},
	}
	serverORB.Activate("calc", fast)
	reply, err := cc.Call(context.Background(), rawRequest(t, 8, "fast"), 8)
	if err != nil {
		t.Fatalf("follow-up call: %v", err)
	}
	if id, _ := giop.PeekRequestID(reply); id != 8 {
		t.Fatalf("reply request ID = %d, want 8", id)
	}
}

// A client-side deadline that expires before the reply arrives surfaces
// as context.DeadlineExceeded from the channel (the orb layer maps it to
// CORBA::TIMEOUT), and the slot is freed.
func TestContextDeadlineOnChannel(t *testing.T) {
	serverORB, _ := startServer(t, "calc", calcServant{})
	cc := dialRaw(t, serverORB, &Transport{})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := cc.Call(ctx, rawRequest(t, 3, "slow"), 3)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if n := cc.pendingLen(); n != 0 {
		t.Fatalf("pending slots after deadline = %d, want 0", n)
	}
}
