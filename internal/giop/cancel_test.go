package giop

import (
	"bytes"
	"testing"

	"corbalc/internal/cdr"
)

var bothOrders = []cdr.ByteOrder{cdr.LittleEndian, cdr.BigEndian}

// TestCancelRequestRoundTrip pins the CancelRequest layout (one ulong in
// every version) and that PeekRequestID, which the server cancels
// through, reads it back in both versions and byte orders.
func TestCancelRequestRoundTrip(t *testing.T) {
	for _, v := range []Version{V10, V12} {
		for _, order := range bothOrders {
			e := NewBodyEncoder(order)
			EncodeCancelRequest(e, &CancelRequestHeader{RequestID: 0xCAFEBABE})
			if want := newRawBody(order).ulong(0xCAFEBABE).b; !bytes.Equal(e.Bytes(), want) {
				t.Fatalf("v%v order %v: encoded % x, want % x", v, order, e.Bytes(), want)
			}
			m := &Message{
				Header: Header{Version: v, Order: order, Type: MsgCancelRequest},
				Body:   e.Bytes(),
			}
			if id, ok := PeekRequestID(m); !ok || id != 0xCAFEBABE {
				t.Errorf("v%v order %v: peek = %#x, %v", v, order, id, ok)
			}
		}
	}
}

// TestPeekRequestIDTruncated pins that a body too short to hold the ID
// is refused rather than read past: a CancelRequest shorter than a
// ulong, and GIOP 1.0 Request and Reply headers whose leading service
// context list is cut short.
func TestPeekRequestIDTruncated(t *testing.T) {
	for _, order := range bothOrders {
		peek := func(v Version, typ MsgType, body []byte) bool {
			_, ok := PeekRequestID(&Message{Header: Header{Version: v, Order: order, Type: typ}, Body: body})
			return ok
		}
		for _, v := range []Version{V10, V12} {
			for n := 0; n < 4; n++ {
				if peek(v, MsgCancelRequest, newRawBody(order).ulong(0xCAFEBABE).b[:n]) {
					t.Errorf("v%v order %v: peek succeeded on a %d-byte CancelRequest", v, order, n)
				}
			}
		}

		req := rawRequest(V10, order, 77)
		idEnd := 4 + 4 + 4 + 3 + 1 + 4 // count, context ID, length, data, pad, request ID
		for n := 0; n < idEnd; n++ {
			if peek(V10, MsgRequest, req[:n]) {
				t.Errorf("order %v: peek succeeded on a 1.0 Request cut to %d bytes", order, n)
			}
		}
		if !peek(V10, MsgRequest, req[:idEnd]) {
			t.Errorf("order %v: peek failed on a 1.0 Request holding its ID", order)
		}
		// A 1.2 header leads with the ID, so the same cut body peeks.
		if !peek(V12, MsgRequest, rawRequest(V12, order, 77)[:4]) {
			t.Errorf("order %v: peek failed on a 1.2 Request holding its ID", order)
		}
		// A context count larger than the body could hold.
		if peek(V10, MsgReply, newRawBody(order).ulong(1<<30).ulong(88).b) {
			t.Errorf("order %v: peek succeeded past a hostile 1.0 context count", order)
		}
	}
}

// TestPeekRequestID pins where the ID sits: after the service context
// list in GIOP 1.0 Request and Reply headers, first in 1.2, in both byte
// orders. The request encoder must write exactly the hand-assembled
// layout, and PeekRequestID must read the ID back from it and from a
// hand-assembled reply carrying a service context.
func TestPeekRequestID(t *testing.T) {
	scs := []ServiceContext{{ID: SvcTracing, Data: []byte{1, 2, 3}}}
	for _, v := range []Version{V10, V12} {
		for _, order := range bothOrders {
			e := NewBodyEncoder(order)
			if err := EncodeRequest(e, v, &RequestHeader{
				RequestID: 77, ResponseExpected: true,
				ObjectKey: []byte("key"), Operation: "op", ServiceContexts: scs,
			}); err != nil {
				t.Fatal(err)
			}
			if raw := rawRequest(v, order, 77); !bytes.Equal(e.Bytes(), raw) {
				t.Fatalf("request v%v order %v: encoded % x, want % x", v, order, e.Bytes(), raw)
			}
			for _, c := range []struct {
				typ  MsgType
				body []byte
				want uint32
			}{
				{MsgRequest, e.Bytes(), 77},
				{MsgReply, rawReply(v, order, 88), 88},
			} {
				m := &Message{Header: Header{Version: v, Order: order, Type: c.typ}, Body: c.body}
				if id, ok := PeekRequestID(m); !ok || id != c.want {
					t.Errorf("%v v%v order %v: peek = %d, %v; want %d", c.typ, v, order, id, ok, c.want)
				}
			}
		}
	}
}
