package giop

import (
	"errors"
	"fmt"

	"corbalc/internal/bufpool"
	"corbalc/internal/cdr"
)

// GIOP 1.2 fragmentation: a message too large for one frame is sent
// with the "more fragments" flag set, followed by Fragment messages
// whose bodies begin with the request ID and whose payloads,
// concatenated in order, restore the original body. CORBA-LC uses this
// for large component-package transfers so one transfer cannot hog a
// multiplexed connection.
//
// Both ends of this implementation splice continuation payloads verbatim
// after the preceding content, so any split point of the original body
// is valid (the reassembled stream is byte-identical to the unfragmented
// encoding).

// fragmentIDLen is the fragment header: the request ID.
const fragmentIDLen = 4

// Fragmentation errors.
var (
	ErrNotFragmentable = errors.New("giop: only GIOP 1.2 messages with a leading request ID can be fragmented")
	ErrOrphanFragment  = errors.New("giop: fragment for an unknown request")
	ErrFragmentState   = errors.New("giop: inconsistent fragment state")
)

// Fragmentable reports whether t is a message type whose GIOP 1.2 body
// begins with the request ID and may therefore be fragmented: Request,
// Reply, LocateRequest and LocateReply. (LocateRequest/LocateReply
// bodies are a handful of bytes plus the object key in practice, but
// the spec permits fragmenting them and a huge object key would
// otherwise wedge the writer — see the writeMaybeFragmented audit in
// internal/iiop.)
func Fragmentable(t MsgType) bool {
	switch t {
	case MsgRequest, MsgReply, MsgLocateRequest, MsgLocateReply:
		return true
	}
	return false
}

// Reassembler accumulates fragmented messages. Feed every inbound
// message through Add: it returns a complete message (possibly the same
// one, when unfragmented) or nil while a reassembly is pending.
type Reassembler struct {
	pending map[uint32]*Message
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{pending: make(map[uint32]*Message)}
}

// Add consumes one wire message. The returned message, when non-nil, is
// complete and has the Fragment flag cleared. A continuation that would
// grow the body past MaxMessageSize fails with ErrMessageSize and drops
// that reassembly.
//
// Ownership: Add never retains m or any slice of m.Body — fragment
// content is copied into a pooled reassembly buffer — so the caller may
// release m as soon as Add returns, UNLESS Add returned m itself (the
// unfragmented fast path, where the message passes straight through).
// A reassembled message returned by Add is pooled and owned by the
// caller; Release it like any other inbound message.
func (ra *Reassembler) Add(m *Message) (*Message, error) {
	switch {
	case Fragmentable(m.Header.Type):
		if !m.Header.Fragment {
			return m, nil
		}
		reqID, err := cdr.NewDecoderAt(m.Body, m.Header.Order, HeaderLen).ReadULong()
		if err != nil {
			return nil, fmt.Errorf("%w: undecodable first fragment", ErrFragmentState)
		}
		if _, dup := ra.pending[reqID]; dup {
			return nil, fmt.Errorf("%w: duplicate request id %d", ErrFragmentState, reqID)
		}
		// Copy into a pooled staging buffer: the source body is the
		// caller's (typically about to be recycled), and the reassembled
		// message must never alias it.
		cp := NewMessage(m.Header, bufpool.Copy(m.Body))
		cp.pooled = true
		ra.pending[reqID] = cp
		return nil, nil
	case m.Header.Type == MsgFragment:
		d := m.BodyDecoder()
		reqID, err := d.ReadULong()
		if err != nil {
			return nil, fmt.Errorf("%w: undecodable fragment header", ErrFragmentState)
		}
		base, ok := ra.pending[reqID]
		if !ok {
			return nil, fmt.Errorf("%w: id %d", ErrOrphanFragment, reqID)
		}
		payload := m.Body[fragmentIDLen:]
		if len(base.Body)+len(payload) > MaxMessageSize {
			delete(ra.pending, reqID)
			base.Release()
			return nil, fmt.Errorf("%w: reassembling request %d", ErrMessageSize, reqID)
		}
		base.Body = appendPooled(base.Body, payload)
		if m.Header.Fragment {
			return nil, nil // more to come
		}
		delete(ra.pending, reqID)
		base.Header.Fragment = false
		base.Header.Size = uint32(len(base.Body))
		return base, nil
	default:
		return m, nil
	}
}

// appendPooled grows a pooled buffer like append, but routes the old
// buffer back to the pool when growth reallocates.
func appendPooled(dst, src []byte) []byte {
	if len(dst)+len(src) <= cap(dst) {
		return append(dst, src...)
	}
	grown := bufpool.Get(len(dst) + len(src))[:0]
	grown = append(grown, dst...)
	grown = append(grown, src...)
	bufpool.Put(dst)
	return grown
}

// Drop discards every in-flight reassembly, releasing their staging
// buffers; connection teardown calls it so half-received transfers do
// not leak pooled memory.
func (ra *Reassembler) Drop() {
	for id, m := range ra.pending {
		delete(ra.pending, id)
		m.Release()
	}
}
