package iiop

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/orb"
)

// recorder is a test interceptor that copies every RequestInfo it sees;
// it serves as both a ClientInterceptor (recording at ReceiveReply, when
// Elapsed/Err are final) and a ServerInterceptor (recording at
// ReceiveRequest, before dispatch).
type recorder struct {
	mu     sync.Mutex
	sent   []orb.RequestInfo
	served []orb.RequestInfo
}

func (r *recorder) SendRequest(context.Context, *orb.RequestInfo) {}

func (r *recorder) ReceiveReply(_ context.Context, info *orb.RequestInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent = append(r.sent, *info)
}

func (r *recorder) ReceiveRequest(_ context.Context, info *orb.RequestInfo) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.served = append(r.served, *info)
	return nil
}

func (r *recorder) SendReply(context.Context, *orb.RequestInfo) {}

// waitFor blocks until the server chain has seen n dispatches of op —
// i.e. the nth such request is registered in-flight server-side.
func (r *recorder) waitFor(t *testing.T, op string, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		r.mu.Lock()
		count := 0
		for _, info := range r.served {
			if info.Operation == op {
				count++
			}
		}
		r.mu.Unlock()
		if count >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("server never saw %d %q dispatches", n, op)
}

func (r *recorder) find(list func(*recorder) []orb.RequestInfo, op string) (orb.RequestInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, info := range list(r) {
		if info.Operation == op {
			return info, true
		}
	}
	return orb.RequestInfo{}, false
}

// The full invocation pipeline over real IIOP: the client's context
// deadline and call ID travel in service contexts, both ORBs'
// interceptor chains observe the same call, deadline expiry surfaces as
// CORBA::TIMEOUT at the client, the CancelRequest emitted on the wire
// reaches the in-flight servant as context cancellation.
func TestE2EContextPipeline(t *testing.T) {
	observedCause := make(chan error, 1)
	servant := orb.ServantFunc{
		RepoID: "IDL:corbalc/test/Calc:1.0",
		Fn: func(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
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
	srvRec := &recorder{}
	serverORB.AddServerInterceptor(srvRec)

	client := newClient(t)
	cliRec := &recorder{}
	client.AddClientInterceptor(cliRec)
	ref, err := client.ResolveStr(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc").String())
	if err != nil {
		t.Fatal(err)
	}

	// A successful bounded call: both chains see it, with one identity.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	var echoed int32
	err = ref.InvokeContext(ctx, "echo",
		func(e *cdr.Encoder) { e.WriteLong(7) },
		func(d *cdr.Decoder) error {
			var err error
			echoed, err = d.ReadLong()
			return err
		})
	if err != nil || echoed != 7 {
		t.Fatalf("echo = %d, %v; want 7, nil", echoed, err)
	}
	cliInfo, ok := cliRec.find(func(r *recorder) []orb.RequestInfo { return r.sent }, "echo")
	if !ok {
		t.Fatal("client interceptor never observed the echo call")
	}
	srvInfo, ok := srvRec.find(func(r *recorder) []orb.RequestInfo { return r.served }, "echo")
	if !ok {
		t.Fatal("server interceptor never observed the echo call")
	}
	if cliInfo.CallID == "" || cliInfo.CallID != srvInfo.CallID {
		t.Fatalf("call IDs differ across the wire: client %q, server %q", cliInfo.CallID, srvInfo.CallID)
	}
	if srvInfo.Deadline.IsZero() {
		t.Fatal("client deadline did not reach the server's interceptor")
	}
	if cliInfo.Err != nil {
		t.Fatalf("client interceptor recorded Err = %v for a successful call", cliInfo.Err)
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
	if info, ok := cliRec.find(func(r *recorder) []orb.RequestInfo { return r.sent }, "block"); !ok {
		t.Fatal("client interceptor never observed the failed call")
	} else if info.Err == nil {
		t.Fatal("client interceptor recorded Err = nil for the expired call")
	}

	// Explicit cancellation with no deadline: the only way the servant's
	// context can end is the CancelRequest arriving on the wire, so the
	// recorded cause must be the peer-cancel cause.
	ctx3, cancel3 := context.WithCancel(context.Background())
	callErr := make(chan error, 1)
	go func() {
		callErr <- ref.InvokeContext(ctx3, "block", nil, func(d *cdr.Decoder) error { return nil })
	}()
	srvRec.waitFor(t, "block", 2)
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
	if err := ref.InvokeContext(context.Background(), "echo",
		func(e *cdr.Encoder) { e.WriteLong(1) },
		func(d *cdr.Decoder) error { _, err := d.ReadLong(); return err }); err != nil {
		t.Fatalf("follow-up call after cancellation: %v", err)
	}
}

// The per-ORB Stats interceptor aggregates both directions of traffic.
func TestE2EStatsInterceptor(t *testing.T) {
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
	if got := client.Stats().RequestsSent(); got != calls {
		t.Fatalf("client RequestsSent = %d, want %d", got, calls)
	}
	if got := serverORB.Stats().RequestsServed(); got != calls {
		t.Fatalf("server RequestsServed = %d, want %d", got, calls)
	}
	if sent, _ := client.Stats().MeanLatency(); sent <= 0 {
		t.Fatalf("client mean latency = %v, want > 0", sent)
	}
}
