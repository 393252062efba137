package giop

// Fuzz targets for the header reads the transport and the ORB run on
// untrusted input. Seeds are assembled byte by byte from the CORBA
// layout of each header, not by this package's encoders.

import (
	"bytes"
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

// FuzzPeekRequestID fuzzes the one header read the transport trusts
// before any full decode: the server cancels and registers requests by
// the ID it returns, and the client routes every reply to its waiter by
// it.
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

// sameRequest reports whether two decoded Request headers carry the
// same fields; an empty context list equals a nil one.
func sameRequest(a, b *RequestHeader) bool {
	if a.RequestID != b.RequestID || a.ResponseExpected != b.ResponseExpected ||
		!bytes.Equal(a.ObjectKey, b.ObjectKey) || a.Operation != b.Operation ||
		len(a.ServiceContexts) != len(b.ServiceContexts) {
		return false
	}
	for i, sc := range a.ServiceContexts {
		if sc.ID != b.ServiceContexts[i].ID || !bytes.Equal(sc.Data, b.ServiceContexts[i].Data) {
			return false
		}
	}
	return true
}

// FuzzDecodeRequestInto fuzzes the Request decode the ORB dispatch loop
// runs on every inbound call. A header reused across decodes must not
// leak state from the earlier message, the interned form must agree with
// the plain one, and whatever decodes must survive a re-encode.
func FuzzDecodeRequestInto(f *testing.F) {
	for _, v := range []Version{V10, V12} {
		for _, order := range []cdr.ByteOrder{cdr.LittleEndian, cdr.BigEndian} {
			f.Add(v.Minor, byte(order), rawRequest(v, order, 77))
		}
	}
	f.Fuzz(func(t *testing.T, minor, orderBit byte, body []byte) {
		v := [2]Version{V10, V12}[minor&1]
		order := cdr.ByteOrder(orderBit & 1)
		decode := func(h *RequestHeader, ops map[string]string) error {
			return DecodeRequestIntoInterned(cdr.NewDecoderAt(body, order, HeaderLen), v, h, ops)
		}
		var fresh RequestHeader
		err := decode(&fresh, nil)

		var reused RequestHeader
		prior := rawRequest(v, order, 1)
		ops := map[string]string{}
		if perr := DecodeRequestIntoInterned(cdr.NewDecoderAt(prior, order, HeaderLen), v, &reused, ops); perr != nil {
			t.Fatalf("seed request does not decode: %v", perr)
		}
		rerr := decode(&reused, nil)
		if (err == nil) != (rerr == nil) || err == nil && !sameRequest(&fresh, &reused) {
			t.Fatalf("reused header: %+v, %v; fresh: %+v, %v", reused, rerr, fresh, err)
		}
		var interned RequestHeader
		ierr := decode(&interned, ops)
		if (err == nil) != (ierr == nil) || err == nil && !sameRequest(&fresh, &interned) {
			t.Fatalf("interned: %+v, %v; plain: %+v, %v", interned, ierr, fresh, err)
		}
		if err != nil {
			return
		}

		e := NewBodyEncoder(order)
		if err := EncodeRequest(e, v, &fresh); err != nil {
			t.Fatal(err)
		}
		var again RequestHeader
		if err := DecodeRequestInto(cdr.NewDecoderAt(e.Bytes(), order, HeaderLen), v, &again); err != nil || !sameRequest(&fresh, &again) {
			t.Fatalf("re-encoded %+v decodes as %+v, %v", fresh, again, err)
		}
	})
}

// FuzzReassembler splits its input into GIOP frames and feeds them to a
// Reassembler, as a connection's read loop does, stopping at the first
// frame the loop would reject. A completed message must be exactly the
// first fragment's body followed by each continuation's payload, and
// never larger than MaxMessageSize.
func FuzzReassembler(f *testing.F) {
	var stream bytes.Buffer
	mw := NewWriter(&stream)
	for id := uint32(1); id <= 2; id++ {
		e := NewBodyEncoder(cdr.BigEndian)
		e.WriteULong(id)
		e.WriteOctetSeq(bytes.Repeat([]byte{byte(id)}, 100))
		if err := mw.WriteMessageFragmented(Header{Version: V12, Order: cdr.BigEndian, Type: MsgReply}, e.Bytes(), 40); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())
	if err := mw.WriteMessage(Header{Version: V12, Type: MsgFragment}, newRawBody(cdr.BigEndian).ulong(3).b); err != nil {
		f.Fatal(err)
	}
	f.Add(stream.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		ra := NewReassembler()
		defer ra.Drop()
		want := map[uint32][]byte{} // request ID -> body so far
		for len(data) >= HeaderLen {
			h, err := DecodeHeader(data)
			if err != nil || int(h.Size) > len(data)-HeaderLen {
				return
			}
			m := &Message{Header: h, Body: data[HeaderLen : HeaderLen+int(h.Size)]}
			data = data[HeaderLen+int(h.Size):]

			// Add fails on a fragment whose request ID does not decode.
			id, _ := m.BodyDecoder().ReadULong()
			done, err := ra.Add(m)
			if err != nil {
				return
			}
			switch {
			case h.Type == MsgFragment:
				want[id] = append(want[id], m.Body[fragmentIDLen:]...)
			case Fragmentable(h.Type) && h.Fragment:
				want[id] = append([]byte(nil), m.Body...)
			}
			if done == nil || done == m {
				continue
			}
			if len(done.Body) > MaxMessageSize {
				t.Fatalf("reassembled %d bytes, over the %d cap", len(done.Body), MaxMessageSize)
			}
			if !bytes.Equal(done.Body, want[id]) || done.Header.Fragment {
				t.Fatalf("request %d reassembled as % x (fragment %v), want % x", id, done.Body, done.Header.Fragment, want[id])
			}
			delete(want, id)
			done.Release()
		}
	})
}
