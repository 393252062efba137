package giop

// Fuzz PeekRequestID, the one header read the transport trusts before
// any full decode: the server cancels and registers requests by the ID
// it returns, and the client routes every reply to its waiter by it.
// Seeds are assembled byte by byte from the CORBA layout of each header,
// not by this package's encoders.

import (
	"encoding/binary"
	"testing"

	"corbalc/internal/cdr"
)

// rawBody assembles a message body in the given byte order. The body
// starts at stream offset HeaderLen (12), so a ulong aligned on 4 from
// the body start is aligned on 4 in the stream too.
type rawBody struct {
	order binary.AppendByteOrder
	b     []byte
}

func newRawBody(order cdr.ByteOrder) *rawBody {
	if order == cdr.LittleEndian {
		return &rawBody{order: binary.LittleEndian}
	}
	return &rawBody{order: binary.BigEndian}
}

func (w *rawBody) align(n int) *rawBody {
	for len(w.b)%n != 0 {
		w.b = append(w.b, 0)
	}
	return w
}

func (w *rawBody) octet(v ...byte) *rawBody { w.b = append(w.b, v...); return w }

func (w *rawBody) ushort(v uint16) *rawBody {
	w.align(2)
	w.b = w.order.AppendUint16(w.b, v)
	return w
}

func (w *rawBody) ulong(v uint32) *rawBody {
	w.align(4)
	w.b = w.order.AppendUint32(w.b, v)
	return w
}

func (w *rawBody) octets(p []byte) *rawBody { return w.ulong(uint32(len(p))).octet(p...) }

func (w *rawBody) str(s string) *rawBody {
	return w.ulong(uint32(len(s) + 1)).octet([]byte(s)...).octet(0)
}

// contexts writes a service context list with one tracing entry.
func (w *rawBody) contexts() *rawBody {
	return w.ulong(1).ulong(SvcTracing).octets([]byte{1, 2, 3})
}

// rawRequest is a Request header: 1.0 leads with the service contexts
// and carries a principal; 1.2 leads with the ID and ends with them.
func rawRequest(v Version, order cdr.ByteOrder, id uint32) []byte {
	w := newRawBody(order)
	if v == V10 {
		w.contexts().ulong(id).octet(1).octets([]byte("key")).str("op").octets(nil)
	} else {
		w.ulong(id).octet(3, 0, 0, 0).ushort(0).octets([]byte("key")).str("op").contexts()
	}
	return w.b
}

// rawReply is a Reply header with NO_EXCEPTION status.
func rawReply(v Version, order cdr.ByteOrder, id uint32) []byte {
	w := newRawBody(order)
	if v == V10 {
		w.contexts().ulong(id).ulong(uint32(ReplyNoException))
	} else {
		w.ulong(id).ulong(uint32(ReplyNoException)).contexts()
	}
	return w.b
}

func FuzzPeekRequestID(f *testing.F) {
	for _, v := range []Version{V10, V12} {
		for _, order := range []cdr.ByteOrder{cdr.LittleEndian, cdr.BigEndian} {
			f.Add(v.Minor, byte(order), byte(MsgRequest), rawRequest(v, order, 77))
			f.Add(v.Minor, byte(order), byte(MsgReply), rawReply(v, order, 88))
			f.Add(v.Minor, byte(order), byte(MsgCancelRequest), newRawBody(order).ulong(0xCAFEBABE).b)
		}
	}
	f.Add(V10.Minor, byte(cdr.LittleEndian), byte(MsgRequest), rawRequest(V10, cdr.LittleEndian, 5)[:10])
	f.Add(V10.Minor, byte(cdr.BigEndian), byte(MsgReply), newRawBody(cdr.BigEndian).ulong(1<<30).b)

	f.Fuzz(func(t *testing.T, minor, order, typ byte, body []byte) {
		m := &Message{
			Header: Header{Version: Version{1, minor}, Order: cdr.ByteOrder(order & 1), Type: MsgType(typ)},
			Body:   body,
		}
		id, ok := PeekRequestID(m)

		var want uint32
		var err error
		switch m.Header.Type {
		case MsgRequest:
			var h RequestHeader
			err = DecodeRequestInto(m.BodyDecoder(), m.Header.Version, &h)
			want = h.RequestID
		case MsgReply:
			var h ReplyHeader
			err = DecodeReplyInto(m.BodyDecoder(), m.Header.Version, &h)
			want = h.RequestID
		default:
			return
		}
		if err == nil && (!ok || id != want) {
			t.Fatalf("v%v %v: peek = %d, %v; full decode read ID %d", m.Header.Version, m.Header.Type, id, ok, want)
		}
	})
}
