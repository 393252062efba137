package svcctx

import (
	"context"
	"errors"
	"testing"
	"time"

	"corbalc/internal/giop"
)

func TestInjectExtractRoundTrip(t *testing.T) {
	dl := time.Now().Add(1500 * time.Millisecond).Truncate(time.Microsecond)
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	defer cancel()
	ctx = WithCallID(ctx, "abc123")

	scs := Inject(ctx, []giop.ServiceContext{{ID: giop.SvcNodeIdentity, Data: []byte("n1")}})
	if len(scs) != 3 {
		t.Fatalf("got %d service contexts, want 3", len(scs))
	}

	info := Extract(scs)
	if !info.HasDeadline {
		t.Fatal("deadline not extracted")
	}
	if !info.Deadline.Equal(dl) {
		t.Errorf("deadline %v, want %v", info.Deadline, dl)
	}
	if info.CallID != "abc123" {
		t.Errorf("call id %q, want %q", info.CallID, "abc123")
	}
}

func TestInjectEmptyContext(t *testing.T) {
	if scs := Inject(context.Background(), nil); len(scs) != 0 {
		t.Fatalf("background context injected %d contexts, want 0", len(scs))
	}
}

func TestExtractIgnoresMalformed(t *testing.T) {
	info := Extract([]giop.ServiceContext{
		{ID: giop.SvcDeadline, Data: []byte{0}}, // truncated
		{ID: giop.SvcCallID, Data: nil},         // empty
	})
	if info.HasDeadline || info.CallID != "" {
		t.Fatalf("malformed contexts extracted: %+v", info)
	}
}

// The ORB's dispatch loop binds a pooled CallCtx over the deadline it
// derives from the transport's context, and rebinds it per request: the
// CallCtx must report the parent's deadline and cancellation as its own,
// answer CallID from the bound bytes, and forget the old ID on rebind.
func TestCallCtxBindsOverDeadline(t *testing.T) {
	dl := time.Now().Add(20 * time.Millisecond)
	parent, cancel := context.WithDeadline(context.Background(), dl)
	defer cancel()
	var c CallCtx
	c.Bind(parent, []byte("xyz"))
	ctx := context.Context(&c)
	if got, ok := ctx.Deadline(); !ok || !got.Equal(dl) {
		t.Fatalf("deadline %v (ok=%v), want %v", got, ok, dl)
	}
	if got := CallID(ctx); got != "xyz" {
		t.Fatalf("call id %q, want xyz", got)
	}
	if ctx.Err() != nil {
		t.Fatalf("Err before expiry = %v", ctx.Err())
	}
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done never closed after the parent's deadline")
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) || !errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
		t.Fatalf("after expiry Err = %v, Cause = %v; want DeadlineExceeded", ctx.Err(), context.Cause(ctx))
	}

	// Rebound to the next request: a new parent whose cancellation
	// carries a cause, and a new ID.
	peerCancel := errors.New("cancelled by peer")
	transport, cancelTransport := context.WithCancelCause(context.Background())
	parent2, cancel2 := context.WithDeadline(transport, time.Now().Add(time.Hour))
	defer cancel2()
	c.Bind(parent2, []byte("ab"))
	if got := CallID(ctx); got != "ab" {
		t.Fatalf("rebound call id %q, want ab", got)
	}
	if ctx.Err() != nil {
		t.Fatalf("rebound Err = %v, want nil", ctx.Err())
	}
	cancelTransport(peerCancel)
	<-ctx.Done()
	if got := context.Cause(ctx); got != peerCancel {
		t.Fatalf("Cause = %v, want the transport's cause", got)
	}
	c.Bind(context.Background(), nil)
	if got := CallID(ctx); got != "" {
		t.Fatalf("call id after an ID-less rebind = %q, want none", got)
	}
}
