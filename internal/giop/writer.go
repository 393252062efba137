package giop

import (
	"fmt"
	"io"
	"net"

	"corbalc/internal/cdr"
)

// Writer frames GIOP messages onto an underlying stream with vectored
// writes: header and body go out as one writev (net.Buffers) so the
// old header+body staging copy disappears from the send path. All
// scratch state (header bytes, fragment-ID bytes, the iovec slice)
// lives in the Writer, so a warm Writer writes a message with zero
// allocations.
//
// A Writer is NOT safe for concurrent use; connection loops serialise
// access with their write mutex, exactly as they must serialise the
// underlying stream anyway.
type Writer struct {
	w io.Writer
	// hdr holds the current message header; fragHdr/fragID hold the
	// per-fragment header and request-ID prefix during fragmentation.
	hdr     [HeaderLen]byte
	fragHdr [HeaderLen]byte
	fragID  [4]byte
	// arr backs vecs; vecs lives in the struct (not the stack) because
	// net.Buffers.WriteTo escapes its receiver into the conn's
	// writeBuffers call, and a heap-resident Writer absorbs that escape
	// once instead of once per message.
	arr  [3][]byte
	vecs net.Buffers
}

// NewWriter returns a message writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// writeVecs performs one vectored write of the currently filled arr
// prefix, then drops the references so pooled buffers are not pinned.
func (mw *Writer) writeVecs(n int) error {
	mw.vecs = mw.arr[:n]
	_, err := mw.vecs.WriteTo(mw.w)
	mw.vecs = nil
	mw.arr = [3][]byte{}
	return err
}

// WriteMessage frames and writes one message as a single vectored
// write; body bytes are handed to the kernel in place, never copied.
func (mw *Writer) WriteMessage(h Header, body []byte) error {
	mw.hdr = EncodeHeader(h, len(body))
	mw.arr[0] = mw.hdr[:]
	if len(body) == 0 {
		return mw.writeVecs(1)
	}
	mw.arr[1] = body
	return mw.writeVecs(2)
}

// WriteMessageFragmented writes a message, splitting bodies larger than
// maxBody across Fragment messages; maxBody <= 0 disables splitting.
// Every fragment is one vectored write of [header, request-ID, chunk] —
// the chunk bytes are slices of the original body, never copied. Only
// GIOP 1.2 messages whose body begins with the request ID (Request,
// Reply, LocateRequest, LocateReply) may be fragmented.
func (mw *Writer) WriteMessageFragmented(h Header, body []byte, maxBody int) error {
	if maxBody <= 0 || len(body) <= maxBody {
		return mw.WriteMessage(h, body)
	}
	if h.Version != V12 || !Fragmentable(h.Type) {
		return ErrNotFragmentable
	}
	if maxBody < 8 {
		maxBody = 8 // room for at least the request id and some payload
	}
	// The request ID leads the 1.2 header in every fragmentable type.
	reqID, err := cdr.NewDecoderAt(body, h.Order, HeaderLen).ReadULong()
	if err != nil {
		return fmt.Errorf("giop: fragmenting: %w", err)
	}

	first := h
	first.Fragment = true
	if err := mw.WriteMessage(first, body[:maxBody]); err != nil {
		return err
	}
	cdr.PutULongAt(mw.fragID[:], 0, h.Order, reqID)
	rest := body[maxBody:]
	for len(rest) > 0 {
		chunk := rest
		more := false
		if len(chunk) > maxBody-fragmentIDLen {
			chunk = chunk[:maxBody-fragmentIDLen]
			more = true
		}
		rest = rest[len(chunk):]
		fh := Header{Version: V12, Order: h.Order, Type: MsgFragment, Fragment: more}
		mw.fragHdr = EncodeHeader(fh, fragmentIDLen+len(chunk))
		mw.arr[0] = mw.fragHdr[:]
		mw.arr[1] = mw.fragID[:]
		mw.arr[2] = chunk
		if err := mw.writeVecs(3); err != nil {
			return err
		}
	}
	return nil
}
