package giop

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"corbalc/internal/cdr"
)

func TestHeaderRoundTrip(t *testing.T) {
	for _, tc := range []Header{
		{Version: V10, Order: cdr.BigEndian, Type: MsgRequest},
		{Version: V12, Order: cdr.LittleEndian, Type: MsgReply},
		{Version: V12, Order: cdr.BigEndian, Type: MsgLocateRequest, Fragment: true},
		{Version: V10, Order: cdr.LittleEndian, Type: MsgCloseConnection},
	} {
		raw := EncodeHeader(tc, 1234)
		h, err := DecodeHeader(raw[:])
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if h.Version != tc.Version || h.Order != tc.Order || h.Type != tc.Type {
			t.Errorf("round trip %+v -> %+v", tc, h)
		}
		if h.Size != 1234 {
			t.Errorf("size = %d", h.Size)
		}
		// GIOP 1.0 has no fragment flag.
		wantFrag := tc.Fragment && tc.Version != V10
		if h.Fragment != wantFrag {
			t.Errorf("fragment = %v, want %v", h.Fragment, wantFrag)
		}
	}
}

func TestHeaderErrors(t *testing.T) {
	bad := EncodeHeader(Header{Version: V12, Type: MsgRequest}, 0)
	bad[0] = 'X'
	if _, err := DecodeHeader(bad[:]); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic err = %v", err)
	}
	bad = EncodeHeader(Header{Version: Version{2, 0}, Type: MsgRequest}, 0)
	if _, err := DecodeHeader(bad[:]); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version err = %v", err)
	}
	huge := EncodeHeader(Header{Version: V12, Order: cdr.BigEndian, Type: MsgRequest}, MaxMessageSize+1)
	if _, err := DecodeHeader(huge[:]); !errors.Is(err, ErrMessageSize) {
		t.Errorf("size err = %v", err)
	}
	if _, err := DecodeHeader([]byte{'G', 'I'}); !errors.Is(err, ErrShortMessage) {
		t.Errorf("short err = %v", err)
	}
}

func TestMessageIO(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("hello body")
	h := Header{Version: V12, Order: cdr.LittleEndian, Type: MsgReply}
	if err := WriteMessage(&buf, h, body); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMessagePooled(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if m.Header.Type != MsgReply || !bytes.Equal(m.Body, body) {
		t.Fatalf("got %+v body %q", m.Header, m.Body)
	}
}

func TestReadMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Header{Version: V10, Order: cdr.BigEndian, Type: MsgRequest}, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadMessagePooled(bytes.NewReader(trunc)); !errors.Is(err, ErrShortMessage) {
		t.Errorf("truncated err = %v", err)
	}
	if _, err := ReadMessagePooled(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty err = %v", err)
	}
}

func requestRoundTrip(t *testing.T, v Version) {
	t.Helper()
	in := &RequestHeader{
		RequestID:        77,
		ResponseExpected: true,
		ObjectKey:        []byte("node/registry"),
		Operation:        "query_components",
		ServiceContexts: []ServiceContext{
			{ID: SvcNodeIdentity, Data: []byte("node-3")},
			{ID: SvcTracing, Data: []byte{1, 2, 3}},
		},
	}
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		e := NewBodyEncoder(order)
		if err := EncodeRequest(e, v, in); err != nil {
			t.Fatal(err)
		}
		AlignBody(e, v)
		e.WriteULong(0xDEADBEEF) // one argument

		m := &Message{Header: Header{Version: v, Order: order, Type: MsgRequest, Size: uint32(e.Len())}, Body: e.Bytes()}
		d := m.BodyDecoder()
		var out RequestHeader
		if err := DecodeRequestInto(d, v, &out); err != nil {
			t.Fatalf("%v/%v: %v", v, order, err)
		}
		if out.RequestID != in.RequestID || !out.ResponseExpected ||
			string(out.ObjectKey) != string(in.ObjectKey) || out.Operation != in.Operation {
			t.Fatalf("%v/%v: header mismatch %+v", v, order, out)
		}
		if len(out.ServiceContexts) != 2 || out.ServiceContexts[0].ID != SvcNodeIdentity ||
			string(out.ServiceContexts[0].Data) != "node-3" {
			t.Fatalf("%v/%v: service contexts %+v", v, order, out.ServiceContexts)
		}
		if err := AlignBodyDecode(d, v); err != nil {
			t.Fatal(err)
		}
		if arg, _ := d.ReadULong(); arg != 0xDEADBEEF {
			t.Fatalf("%v/%v: body arg = %#x", v, order, arg)
		}
	}
}

func TestRequestRoundTrip10(t *testing.T) { requestRoundTrip(t, V10) }
func TestRequestRoundTrip12(t *testing.T) { requestRoundTrip(t, V12) }

func replyRoundTrip(t *testing.T, v Version) {
	t.Helper()
	e := NewBodyEncoder(cdr.LittleEndian)
	if _, err := EncodeReplyPrelude(e, v, 99, ReplyUserException); err != nil {
		t.Fatal(err)
	}
	AlignBody(e, v)
	e.WriteString("IDL:corbalc/NotFound:1.0")

	m := &Message{Header: Header{Version: v, Order: cdr.LittleEndian, Type: MsgReply}, Body: e.Bytes()}
	d := m.BodyDecoder()
	var out ReplyHeader
	if err := DecodeReplyInto(d, v, &out); err != nil {
		t.Fatal(err)
	}
	if out.RequestID != 99 || out.Status != ReplyUserException {
		t.Fatalf("reply header %+v", out)
	}
	if err := AlignBodyDecode(d, v); err != nil {
		t.Fatal(err)
	}
	if s, _ := d.ReadString(); s != "IDL:corbalc/NotFound:1.0" {
		t.Fatalf("reply body = %q", s)
	}
}

func TestReplyRoundTrip10(t *testing.T) { replyRoundTrip(t, V10) }
func TestReplyRoundTrip12(t *testing.T) { replyRoundTrip(t, V12) }

func TestLocateRoundTrip(t *testing.T) {
	for _, v := range []Version{V10, V12} {
		e := NewBodyEncoder(cdr.BigEndian)
		if err := EncodeLocateRequest(e, v, &LocateRequestHeader{RequestID: 5, ObjectKey: []byte("k")}); err != nil {
			t.Fatal(err)
		}
		d := cdr.NewDecoderAt(e.Bytes(), cdr.BigEndian, HeaderLen)
		h, err := DecodeLocateRequest(d, v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if h.RequestID != 5 || string(h.ObjectKey) != "k" {
			t.Fatalf("%v: %+v", v, h)
		}
	}
	e := NewBodyEncoder(cdr.BigEndian)
	EncodeLocateReply(e, &LocateReplyHeader{RequestID: 5, Status: LocateObjectHere})
	d := cdr.NewDecoderAt(e.Bytes(), cdr.BigEndian, HeaderLen)
	lr, err := DecodeLocateReply(d)
	if err != nil || lr.Status != LocateObjectHere {
		t.Fatalf("locate reply %+v, %v", lr, err)
	}
}

func TestResponseExpectedFlagV12(t *testing.T) {
	e := NewBodyEncoder(cdr.BigEndian)
	if err := EncodeRequest(e, V12, &RequestHeader{RequestID: 1, ResponseExpected: false, Operation: "oneway_op"}); err != nil {
		t.Fatal(err)
	}
	d := cdr.NewDecoderAt(e.Bytes(), cdr.BigEndian, HeaderLen)
	var h RequestHeader
	if err := DecodeRequestInto(d, V12, &h); err != nil {
		t.Fatal(err)
	}
	if h.ResponseExpected {
		t.Fatal("oneway decoded as response-expected")
	}
}

func TestHostileServiceContextCount(t *testing.T) {
	// A request claiming 2^31 service contexts must be rejected, not
	// cause a huge allocation.
	e := NewBodyEncoder(cdr.BigEndian)
	e.WriteULong(1 << 31)
	d := cdr.NewDecoderAt(e.Bytes(), cdr.BigEndian, HeaderLen)
	var scs []ServiceContext
	if err := decodeServiceContextsInto(d, &scs); !errors.Is(err, cdr.ErrTooLong) {
		t.Errorf("hostile count err = %v", err)
	}
}

// Property: decoding arbitrary bytes as each header type never panics.
func TestQuickDecodeGarbage(t *testing.T) {
	var req RequestHeader
	var rep ReplyHeader
	f := func(raw []byte) bool {
		for _, v := range []Version{V10, V12} {
			d := cdr.NewDecoderAt(raw, cdr.BigEndian, HeaderLen)
			_ = DecodeRequestInto(d, v, &req)
			d = cdr.NewDecoderAt(raw, cdr.LittleEndian, HeaderLen)
			_ = DecodeReplyInto(d, v, &rep)
			d = cdr.NewDecoderAt(raw, cdr.BigEndian, HeaderLen)
			_, _ = DecodeLocateRequest(d, v)
		}
		_, _ = DecodeHeader(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeRequestV12(b *testing.B) {
	h := &RequestHeader{RequestID: 1, ResponseExpected: true, ObjectKey: []byte("some/object/key"), Operation: "invoke"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewBodyEncoder(cdr.LittleEndian)
		if err := EncodeRequest(e, V12, h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRequestV12(b *testing.B) {
	e := NewBodyEncoder(cdr.LittleEndian)
	h := &RequestHeader{RequestID: 1, ResponseExpected: true, ObjectKey: []byte("some/object/key"), Operation: "invoke"}
	if err := EncodeRequest(e, V12, h); err != nil {
		b.Fatal(err)
	}
	raw := e.Bytes()
	var out RequestHeader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := cdr.NewDecoderAt(raw, cdr.LittleEndian, HeaderLen)
		if err := DecodeRequestInto(d, V12, &out); err != nil {
			b.Fatal(err)
		}
	}
}
