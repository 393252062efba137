package iiop

// Tests for true oneway semantics on the wire: ResponseExpected=false,
// no pending-map entry, and SyncNone ownership transfer.

import (
	"context"
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
	if served := serverORB.RequestsServed(); served != 2 {
		t.Fatalf("server RequestsServed = %d, want 2", served)
	}
}
