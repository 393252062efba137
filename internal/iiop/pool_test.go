package iiop

// Tests for the pooled hot path: buffer-recycling safety under
// concurrency, the inbound frame-size cap, and the cancellation "flush
// discipline" (control messages reach the peer promptly — nothing sits
// in a user-space write buffer, because there is none: writes go to the
// socket as one writev).

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/giop"
	"corbalc/internal/ior"
	"corbalc/internal/leak"
	"corbalc/internal/orb"
)

// TestOversizedFrameRejectedWithMessageError sends a frame whose header
// claims a body larger than the configured cap and expects the server to
// answer with a GIOP MessageError before dropping the connection —
// the protocol-visible half of the max-message-size satellite.
func TestOversizedFrameRejectedWithMessageError(t *testing.T) {
	serverORB := orb.NewORB()
	srv, err := ListenAndActivate(serverORB, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	host, _ := serverORB.Endpoint()
	_, port := serverORB.Endpoint()

	conn, err := net.Dial("tcp", fmt.Sprintf("%s:%d", host, port))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))

	// A header claiming one byte more than the cap; no body follows (the
	// server must reject on the header alone, before buffering anything).
	hdr := giop.EncodeHeader(giop.Header{
		Version: giop.V12, Order: cdr.LittleEndian, Type: giop.MsgRequest,
	}, giop.MaxMessageSize+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}

	var resp [giop.HeaderLen]byte
	if _, err := conn.Read(resp[:]); err != nil {
		t.Fatalf("no MessageError before close: %v", err)
	}
	h, err := giop.DecodeHeader(resp[:])
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != giop.MsgMessageError {
		t.Fatalf("reply type = %v, want MessageError", h.Type)
	}
}

// parkServant blocks in InvokeContext until its request context is
// cancelled, reporting the observed cancellation latency.
type parkServant struct {
	parked    chan struct{} // closed when the servant is blocked
	cancelled chan error    // receives ctx.Err() cause when released
}

func (*parkServant) RepositoryID() string { return "IDL:corbalc/test/Park:1.0" }

func (s *parkServant) InvokeContext(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	close(s.parked)
	select {
	case <-ctx.Done():
		s.cancelled <- context.Cause(ctx)
	case <-time.After(10 * time.Second):
		s.cancelled <- errors.New("never cancelled")
	}
	return orb.Timeout()
}

// TestCancelReachesServerPromptly is the flush-discipline test from the
// writeMaybeFragmented audit: while a slow call is parked server-side,
// the client's context expiry must push a CancelRequest onto the wire
// immediately (not parked behind buffering), cancelling the servant's
// context well before the server's own safety timeout.
func TestCancelReachesServerPromptly(t *testing.T) {
	s := &parkServant{parked: make(chan struct{}), cancelled: make(chan error, 1)}
	serverORB, _ := startServer(t, "park", s)
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Park:1.0", "park"))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ref.InvokeContext(ctx, "park", nil, nil) }()

	select {
	case <-s.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the servant")
	}
	cancel() // client gives up: a GIOP CancelRequest must go out now

	select {
	case cause := <-s.cancelled:
		if cause == nil || cause.Error() != "iiop: request cancelled by peer" {
			t.Fatalf("servant cancelled with cause %v, want peer cancellation", cause)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("CancelRequest did not reach the server promptly")
	}
	if err := <-done; err == nil {
		t.Fatal("cancelled call reported success")
	}
}

// TestCloseReachesServerPromptly is the Close half of the flush
// discipline: closing the client channel must tear down the server side
// of the connection promptly, cancelling parked requests.
func TestCloseReachesServerPromptly(t *testing.T) {
	s := &parkServant{parked: make(chan struct{}), cancelled: make(chan error, 1)}
	serverORB, _ := startServer(t, "park", s)
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Park:1.0", "park"))

	go func() { _ = ref.InvokeContext(context.Background(), "park", nil, nil) }()
	select {
	case <-s.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the servant")
	}
	client.Shutdown() // closes the cached channel -> TCP close

	select {
	case <-s.cancelled:
		// Connection-death cancellation: any cause is acceptable, what
		// matters is that it arrived promptly.
	case <-time.After(2 * time.Second):
		t.Fatal("connection close did not cancel the parked request promptly")
	}
}

// keeperServant copies request payloads (via the copying ReadOctetSeq)
// and retains them across calls — the "retaining servant" from the
// aliasing test matrix. Retained copies must stay intact no matter how
// many later requests recycle the wire buffers they came from.
type keeperServant struct {
	mu   sync.Mutex
	kept [][]byte
}

func (*keeperServant) RepositoryID() string { return "IDL:corbalc/test/Keeper:1.0" }

func (s *keeperServant) InvokeContext(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	switch op {
	case "keep":
		b, err := args.ReadOctetSeq() // copying read: safe to retain
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.kept = append(s.kept, b)
		n := len(s.kept)
		s.mu.Unlock()
		reply.WriteLong(int32(n))
		return nil
	}
	return orb.BadOperation()
}

func (s *keeperServant) snapshot() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.kept...)
}

// TestRetainingServantSurvivesBufferRecycling hammers a servant that
// retains (copied) request payloads, then verifies every retained copy
// against the expected pattern: if any decode had aliased a recycled
// wire buffer, later traffic would have scribbled over it.
func TestRetainingServantSurvivesBufferRecycling(t *testing.T) {
	s := &keeperServant{}
	serverORB, _ := startServer(t, "keeper", s)
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Keeper:1.0", "keeper"))

	const calls = 200
	payload := func(i int) []byte {
		b := make([]byte, 64+(i%7)*32)
		for j := range b {
			b[j] = byte(i + j)
		}
		return b
	}
	for i := 0; i < calls; i++ {
		p := payload(i)
		if err := ref.InvokeContext(context.Background(), "keep",
			func(e *cdr.Encoder) { e.WriteOctetSeq(p) },
			func(d *cdr.Decoder) error { _, err := d.ReadLong(); return err },
		); err != nil {
			t.Fatal(err)
		}
	}
	kept := s.snapshot()
	if len(kept) != calls {
		t.Fatalf("kept %d payloads, want %d", len(kept), calls)
	}
	for i, b := range kept {
		want := payload(i)
		if len(b) != len(want) {
			t.Fatalf("payload %d: %d bytes, want %d", i, len(b), len(want))
		}
		for j := range b {
			if b[j] != want[j] {
				t.Fatalf("payload %d corrupted at byte %d: recycled-buffer aliasing", i, j)
			}
		}
	}
}

// TestConcurrentCallSendStorm mixes two-way calls and oneway sends from
// many goroutines over one multiplexed connection — run under -race (the
// CI race gate does) this is the pool layer's aliasing/race test: every
// message body cycles through the pools while neighbours are in flight.
func TestConcurrentCallSendStorm(t *testing.T) {
	leak.Check(t)
	serverORB, _ := startServer(t, "calc", calcServant{})
	client := newClient(t)
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	const goroutines = 12
	const perG = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				n := int32(g*1000 + i)
				if i%5 == 4 {
					// Interleave oneways: fire-and-forget requests whose
					// buffers are recycled right after the write.
					if err := ref.InvokeOnewayContext(context.Background(), "square", func(e *cdr.Encoder) { e.WriteLong(n) }); err != nil {
						errs <- err
						return
					}
					continue
				}
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
					errs <- fmt.Errorf("square(%d) = %d: cross-request corruption", n, sq)
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
}

// BenchmarkChannelCall measures a raw channel round trip: request build
// through reply release, without the ObjectRef layer — the transport
// cost that rides under every remote invocation.
func BenchmarkChannelCall(b *testing.B) {
	serverORB := orb.NewORB()
	srv, err := ListenAndActivate(serverORB, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	serverORB.Activate("calc", calcServant{})

	profile := serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc").Profile(ior.TagInternetIOP)
	if profile == nil {
		b.Fatal("no IIOP profile")
	}
	tr := &Transport{}
	ch, err := tr.Dial(context.Background(), profile)
	if err != nil {
		b.Fatal(err)
	}
	defer ch.Close()

	ctx := context.Background()
	key := []byte("calc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqID := uint32(i + 1)
		e := giop.GetBodyEncoder(cdr.LittleEndian)
		if err := giop.EncodeRequest(e, giop.V12, &giop.RequestHeader{
			RequestID: reqID, ResponseExpected: true, ObjectKey: key, Operation: "square",
		}); err != nil {
			b.Fatal(err)
		}
		giop.AlignBody(e, giop.V12)
		e.WriteLong(7)
		req := giop.MessageFromEncoder(giop.Header{
			Version: giop.V12, Order: cdr.LittleEndian, Type: giop.MsgRequest,
		}, e)
		reply, err := ch.Call(ctx, req, reqID)
		req.Release()
		if err != nil {
			b.Fatal(err)
		}
		reply.Release()
	}
}
