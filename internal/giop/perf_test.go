package giop

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"corbalc/internal/cdr"
	"corbalc/internal/race"
)

// skipUnderRace skips alloc-count assertions when the race detector is
// on: sync.Pool then drops a random quarter of Put items by design, so
// pooled paths cannot measure zero.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("sync.Pool randomly drops items under the race detector; alloc counts are not stable")
	}
}

// buildBenchRequest returns a framed request message (header + body) as
// it would leave buildRequest: a small null-call-sized body.
func buildBenchRequest(t testing.TB) (Header, []byte) {
	t.Helper()
	e := NewBodyEncoder(cdr.LittleEndian)
	err := EncodeRequest(e, V12, &RequestHeader{
		RequestID: 7, ResponseExpected: true,
		ObjectKey: []byte("calc"), Operation: "square",
	})
	if err != nil {
		t.Fatal(err)
	}
	h := Header{Version: V12, Order: cdr.LittleEndian, Type: MsgRequest}
	return h, e.Bytes()
}

// BenchmarkGIOPWriteMessage drives the vectored send path with a warm
// Writer: the allocation budget here is zero — header and body go to the
// stream as one writev with no staging copy (allocs/op == 0, enforced
// by TestWriteMessageZeroAlloc).
func BenchmarkGIOPWriteMessage(b *testing.B) {
	h, body := buildBenchRequest(b)
	mw := NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mw.WriteMessage(h, body); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteMessageZeroAlloc pins the vectored write path's allocation
// budget at exactly zero: any regression (staging copies, escaping
// iovecs) fails here before it shows up in profiles.
func TestWriteMessageZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	h, body := buildBenchRequest(t)
	mw := NewWriter(io.Discard)
	if err := mw.WriteMessage(h, body); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := mw.WriteMessage(h, body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteMessage allocates %.1f times per call, want 0", allocs)
	}
}

// replayReader serves the same framed message over and over, simulating
// a connection delivering a stream of identical requests.
type replayReader struct {
	frame []byte
	pos   int
}

func (r *replayReader) Read(p []byte) (int, error) {
	if r.pos == len(r.frame) {
		r.pos = 0
	}
	n := copy(p, r.frame[r.pos:])
	r.pos += n
	return n, nil
}

// BenchmarkGIOPReadMessagePooled measures the pooled receive path:
// steady state should recycle both the Message struct and its body
// buffer, leaving only the unavoidable per-message bookkeeping.
func BenchmarkGIOPReadMessagePooled(b *testing.B) {
	h, body := buildBenchRequest(b)
	var frame bytes.Buffer
	if err := WriteMessage(&frame, h, body); err != nil {
		b.Fatal(err)
	}
	r := &replayReader{frame: frame.Bytes()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := ReadMessagePooled(r)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

// TestReadMessagePooledSteadyStateAllocs pins the pooled receive path's
// budget: after warm-up a read+release cycle must not allocate (struct
// and buffer both come from pools).
func TestReadMessagePooledSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	h, body := buildBenchRequest(t)
	var frame bytes.Buffer
	if err := WriteMessage(&frame, h, body); err != nil {
		t.Fatal(err)
	}
	r := &replayReader{frame: frame.Bytes()}
	for i := 0; i < 16; i++ { // warm the pools
		m, err := ReadMessagePooled(r)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	allocs := testing.AllocsPerRun(100, func() {
		m, err := ReadMessagePooled(r)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	})
	if allocs > 0 {
		t.Fatalf("ReadMessagePooled allocates %.1f times per message, want 0", allocs)
	}
}

// TestMaxMessageSizeCap exercises the inbound frame cap: a header
// claiming exactly MaxMessageSize is accepted, and one claiming a byte
// more is rejected with ErrMessageSize before any body is allocated or
// read (the reader holds the header alone, so a body read would fail
// with ErrShortMessage instead).
func TestMaxMessageSizeCap(t *testing.T) {
	h := Header{Version: V12, Order: cdr.LittleEndian, Type: MsgRequest}
	at := EncodeHeader(h, MaxMessageSize)
	if _, err := DecodeHeader(at[:]); err != nil {
		t.Fatalf("frame of exactly the cap rejected: %v", err)
	}
	over := EncodeHeader(h, MaxMessageSize+1)
	if _, err := ReadMessagePooled(bytes.NewReader(over[:])); !errors.Is(err, ErrMessageSize) {
		t.Fatalf("oversized frame: err = %v, want ErrMessageSize", err)
	}
}

// TestReassemblyHonoursMaxMessageSize holds fragment reassembly to the
// same cap as a single frame: a continuation that would grow the body
// past MaxMessageSize fails with ErrMessageSize and drops the pending
// reassembly, so its next fragment is an orphan. Every frame here is
// under the cap on its own; one continuation body is reused, so peak
// memory stays near twice its size.
func TestReassemblyHonoursMaxMessageSize(t *testing.T) {
	const id = 9
	first := cdr.NewEncoderAt(cdr.LittleEndian, HeaderLen)
	first.WriteULong(id)
	cont := make([]byte, fragmentIDLen+MaxMessageSize/2)
	cdr.PutULongAt(cont, 0, cdr.LittleEndian, id)
	frag := &Message{Header: Header{Version: V12, Order: cdr.LittleEndian, Type: MsgFragment, Fragment: true}, Body: cont}

	ra := NewReassembler()
	defer ra.Drop()
	if m, err := ra.Add(&Message{Header: Header{Version: V12, Order: cdr.LittleEndian, Type: MsgRequest, Fragment: true}, Body: first.Bytes()}); m != nil || err != nil {
		t.Fatalf("first fragment: %v, %v", m, err)
	}
	if m, err := ra.Add(frag); m != nil || err != nil {
		t.Fatalf("continuation within the cap: %v, %v", m, err)
	}
	if m, err := ra.Add(frag); m != nil || !errors.Is(err, ErrMessageSize) {
		t.Fatalf("continuation past the cap: %v, err = %v, want ErrMessageSize", m, err)
	}
	if len(ra.pending) != 0 {
		t.Fatalf("%d reassemblies still pending after the cap was hit", len(ra.pending))
	}
	if _, err := ra.Add(frag); !errors.Is(err, ErrOrphanFragment) {
		t.Fatalf("fragment after the drop: err = %v, want ErrOrphanFragment", err)
	}
}

// TestLocateReplyFragmentation covers the writeMaybeFragmented audit
// outcome: LocateReply (and LocateRequest) are fragmentable in GIOP 1.2
// — their bodies begin with the request ID — so a huge locate body must
// round-trip through the fragmenter instead of wedging the writer.
func TestLocateReplyFragmentation(t *testing.T) {
	for _, mt := range []MsgType{MsgLocateRequest, MsgLocateReply} {
		e := cdr.NewEncoderAt(cdr.LittleEndian, HeaderLen)
		e.WriteULong(99) // request ID leads the body
		for i := 0; i < 5000; i++ {
			e.WriteULong(uint32(i))
		}
		h := Header{Version: V12, Order: cdr.LittleEndian, Type: mt}

		var wire bytes.Buffer
		if err := NewWriter(&wire).WriteMessageFragmented(h, e.Bytes(), 1024); err != nil {
			t.Fatalf("%v: %v", mt, err)
		}

		ra := NewReassembler()
		var assembled *Message
		for wire.Len() > 0 {
			raw, err := ReadMessagePooled(&wire)
			if err != nil {
				t.Fatalf("%v: read: %v", mt, err)
			}
			m, err := ra.Add(raw)
			if m != raw {
				raw.Release()
			}
			if err != nil {
				t.Fatalf("%v: add: %v", mt, err)
			}
			if m != nil {
				assembled = m
			}
		}
		if assembled == nil {
			t.Fatalf("%v: never reassembled", mt)
		}
		if !bytes.Equal(assembled.Body, e.Bytes()) {
			t.Fatalf("%v: reassembled body differs from original", mt)
		}
		if assembled.Header.Type != mt || assembled.Header.Fragment {
			t.Fatalf("%v: bad reassembled header %+v", mt, assembled.Header)
		}
		assembled.Release()
	}
}

// TestReassemblyNeverAliasesRecycledBuffers poisons every wire buffer
// after its release point and checks the reassembled message is
// unaffected — the reassembler must copy fragment content into its own
// staging buffer, never borrow the (about to be recycled) wire bytes.
func TestReassemblyNeverAliasesRecycledBuffers(t *testing.T) {
	e := cdr.NewEncoderAt(cdr.LittleEndian, HeaderLen)
	e.WriteULong(7)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	e.WriteOctetSeq(payload)
	want := append([]byte(nil), e.Bytes()...)
	h := Header{Version: V12, Order: cdr.LittleEndian, Type: MsgReply}

	var wire bytes.Buffer
	if err := NewWriter(&wire).WriteMessageFragmented(h, e.Bytes(), 512); err != nil {
		t.Fatal(err)
	}

	ra := NewReassembler()
	var assembled *Message
	var consumed []*Message // raw wire messages whose bodies we poison
	for wire.Len() > 0 {
		raw, err := ReadMessagePooled(&wire)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ra.Add(raw)
		if err != nil {
			t.Fatal(err)
		}
		if m != raw {
			// The reassembler is done with raw: poison its body BEFORE
			// releasing, as a recycled buffer's next owner would.
			for i := range raw.Body {
				raw.Body[i] = 0xAA
			}
			consumed = append(consumed, raw)
			raw.Release()
		}
		if m != nil {
			assembled = m
		}
	}
	if assembled == nil {
		t.Fatal("never reassembled")
	}
	if len(consumed) == 0 {
		t.Fatal("test expected the message to be fragmented")
	}
	if !bytes.Equal(assembled.Body, want) {
		t.Fatal("reassembled body corrupted by poisoning recycled wire buffers: aliasing")
	}
	assembled.Release()
}
