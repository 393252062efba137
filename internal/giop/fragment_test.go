package giop

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"corbalc/internal/cdr"
)

// buildRequest makes a GIOP 1.2 request whose body carries payload.
func buildRequest(t testing.TB, reqID uint32, payload []byte) ([]byte, Header) {
	t.Helper()
	e := NewBodyEncoder(cdr.LittleEndian)
	err := EncodeRequest(e, V12, &RequestHeader{
		RequestID: reqID, ResponseExpected: true,
		ObjectKey: []byte("some/key"), Operation: "transfer",
	})
	if err != nil {
		t.Fatal(err)
	}
	AlignBody(e, V12)
	e.WriteOctetSeq(payload)
	return e.Bytes(), Header{Version: V12, Order: cdr.LittleEndian, Type: MsgRequest}
}

// reassembleStream reads messages from buf and runs them through a
// reassembler the way a connection's read loop does, returning the
// completed messages.
func reassembleStream(t testing.TB, buf *bytes.Buffer) []*Message {
	t.Helper()
	ra := NewReassembler()
	var out []*Message
	for buf.Len() > 0 {
		raw, err := ReadMessagePooled(buf)
		if err != nil {
			t.Fatal(err)
		}
		done, err := ra.Add(raw)
		if done != raw {
			raw.Release()
		}
		if err != nil {
			t.Fatal(err)
		}
		if done != nil {
			out = append(out, done)
		}
	}
	if len(ra.pending) != 0 {
		t.Fatalf("%d reassemblies left pending", len(ra.pending))
	}
	return out
}

func TestFragmentRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 400) // 6400 bytes
	body, h := buildRequest(t, 77, payload)

	var wire bytes.Buffer
	if err := NewWriter(&wire).WriteMessageFragmented(h, body, 512); err != nil {
		t.Fatal(err)
	}
	// The wire must carry one Request plus several Fragment messages.
	snapshot := append([]byte(nil), wire.Bytes()...)
	var kinds []MsgType
	probe := bytes.NewBuffer(snapshot)
	for probe.Len() > 0 {
		m, err := ReadMessagePooled(probe)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, m.Header.Type)
		m.Release()
	}
	if len(kinds) < 3 || kinds[0] != MsgRequest || kinds[1] != MsgFragment {
		t.Fatalf("wire kinds = %v", kinds)
	}

	done := reassembleStream(t, &wire)
	if len(done) != 1 {
		t.Fatalf("reassembled %d messages", len(done))
	}
	m := done[0]
	if m.Header.Fragment {
		t.Fatal("fragment flag survived reassembly")
	}
	if !bytes.Equal(m.Body, body) {
		t.Fatalf("body mismatch: %d vs %d bytes", len(m.Body), len(body))
	}
	// The reassembled message decodes like the original.
	d := m.BodyDecoder()
	var req RequestHeader
	if err := DecodeRequestInto(d, V12, &req); err != nil || req.RequestID != 77 || req.Operation != "transfer" {
		t.Fatalf("decode: %+v, %v", req, err)
	}
	if err := AlignBodyDecode(d, V12); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadOctetSeq()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("payload: %d bytes, %v", len(got), err)
	}
}

func TestFragmentInterleavedRequests(t *testing.T) {
	bodyA, hA := buildRequest(t, 1, bytes.Repeat([]byte("A"), 3000))
	bodyB, hB := buildRequest(t, 2, bytes.Repeat([]byte("B"), 3000))
	var wireA, wireB bytes.Buffer
	if err := NewWriter(&wireA).WriteMessageFragmented(hA, bodyA, 512); err != nil {
		t.Fatal(err)
	}
	if err := NewWriter(&wireB).WriteMessageFragmented(hB, bodyB, 512); err != nil {
		t.Fatal(err)
	}
	// Interleave the two message streams fragment by fragment.
	var interleaved bytes.Buffer
	for wireA.Len() > 0 || wireB.Len() > 0 {
		for _, w := range []*bytes.Buffer{&wireA, &wireB} {
			if w.Len() == 0 {
				continue
			}
			m, err := ReadMessagePooled(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteMessage(&interleaved, m.Header, m.Body); err != nil {
				t.Fatal(err)
			}
			m.Release()
		}
	}
	done := reassembleStream(t, &interleaved)
	if len(done) != 2 {
		t.Fatalf("done=%d", len(done))
	}
	for _, m := range done {
		var req RequestHeader
		if err := DecodeRequestInto(m.BodyDecoder(), V12, &req); err != nil {
			t.Fatal(err)
		}
		want := bodyA
		if req.RequestID == 2 {
			want = bodyB
		}
		if !bytes.Equal(m.Body, want) {
			t.Fatalf("request %d body corrupted in interleaved reassembly", req.RequestID)
		}
	}
}

func TestFragmentErrors(t *testing.T) {
	// Fragmenting a 1.0 message is refused.
	body, h := buildRequest(t, 9, bytes.Repeat([]byte("x"), 2000))
	h10 := h
	h10.Version = V10
	var buf bytes.Buffer
	mw := NewWriter(&buf)
	if err := mw.WriteMessageFragmented(h10, body, 100); !errors.Is(err, ErrNotFragmentable) {
		t.Fatalf("1.0 fragment err = %v", err)
	}
	// Small bodies pass through unfragmented.
	buf.Reset()
	if err := mw.WriteMessageFragmented(h, body, 1<<20); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMessagePooled(&buf)
	if err != nil || m.Header.Fragment {
		t.Fatalf("small body fragmented: %v %v", m.Header, err)
	}
	m.Release()
	// Orphan fragment.
	ra := NewReassembler()
	e := NewBodyEncoder(cdr.BigEndian)
	e.WriteULong(12345)
	_, err = ra.Add(&Message{
		Header: Header{Version: V12, Order: cdr.BigEndian, Type: MsgFragment},
		Body:   e.Bytes(),
	})
	if !errors.Is(err, ErrOrphanFragment) {
		t.Fatalf("orphan err = %v", err)
	}
	// Unfragmented messages pass through untouched.
	plain := &Message{Header: Header{Version: V12, Order: cdr.BigEndian, Type: MsgReply}}
	out, err := ra.Add(plain)
	if err != nil || out != plain {
		t.Fatalf("passthrough: %v %v", out, err)
	}
}

// Property: any payload and any fragment size reassemble byte-identical.
func TestQuickFragmentAnySplit(t *testing.T) {
	f := func(payload []byte, maxRaw uint16) bool {
		max := int(maxRaw)%2048 + 16
		body, h := buildRequest(t, 5, payload)
		var wire bytes.Buffer
		if err := NewWriter(&wire).WriteMessageFragmented(h, body, max); err != nil {
			return false
		}
		done := reassembleStream(t, &wire)
		return len(done) == 1 && bytes.Equal(done[0].Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
