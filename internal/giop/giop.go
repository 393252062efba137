// Package giop implements the General Inter-ORB Protocol message layer:
// the 12-byte GIOP header, the Request/Reply/Locate message headers for
// protocol versions 1.0 and 1.2, and blocking framed message I/O over any
// io.Reader/io.Writer.
//
// GIOP bodies are CDR streams whose alignment is measured from the start
// of the message (i.e. the header occupies offsets 0–11), which is why
// the encode helpers here hand out cdr encoders pre-based at offset 12.
package giop

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"corbalc/internal/bufpool"
	"corbalc/internal/cdr"
)

// MsgType enumerates the GIOP message kinds.
type MsgType byte

// GIOP message type codes.
const (
	MsgRequest         MsgType = 0
	MsgReply           MsgType = 1
	MsgCancelRequest   MsgType = 2
	MsgLocateRequest   MsgType = 3
	MsgLocateReply     MsgType = 4
	MsgCloseConnection MsgType = 5
	MsgMessageError    MsgType = 6
	MsgFragment        MsgType = 7
)

var msgTypeNames = [...]string{
	"Request", "Reply", "CancelRequest", "LocateRequest",
	"LocateReply", "CloseConnection", "MessageError", "Fragment",
}

func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", byte(t))
}

// ReplyStatus enumerates the outcome codes carried in a Reply header.
type ReplyStatus uint32

// Reply status codes.
const (
	ReplyNoException     ReplyStatus = 0
	ReplyUserException   ReplyStatus = 1
	ReplySystemException ReplyStatus = 2
	ReplyLocationForward ReplyStatus = 3
)

func (s ReplyStatus) String() string {
	switch s {
	case ReplyNoException:
		return "NO_EXCEPTION"
	case ReplyUserException:
		return "USER_EXCEPTION"
	case ReplySystemException:
		return "SYSTEM_EXCEPTION"
	case ReplyLocationForward:
		return "LOCATION_FORWARD"
	}
	return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
}

// LocateStatus enumerates LocateReply outcomes.
type LocateStatus uint32

// Locate status codes.
const (
	LocateUnknownObject LocateStatus = 0
	LocateObjectHere    LocateStatus = 1
	LocateObjectForward LocateStatus = 2
)

// Version is a GIOP protocol version.
type Version struct{ Major, Minor byte }

// Supported protocol versions.
var (
	V10 = Version{1, 0}
	V12 = Version{1, 2}
)

func (v Version) String() string { return fmt.Sprintf("%d.%d", v.Major, v.Minor) }

// HeaderLen is the fixed size of the GIOP message header.
const HeaderLen = 12

var magic = [4]byte{'G', 'I', 'O', 'P'}

// Errors produced by the message layer.
var (
	ErrBadMagic     = errors.New("giop: bad magic")
	ErrBadVersion   = errors.New("giop: unsupported GIOP version")
	ErrMessageSize  = errors.New("giop: message exceeds size limit")
	ErrShortMessage = errors.New("giop: truncated message")
)

// MaxMessageSize caps an accepted message body (64 MiB), whether it
// arrives in one frame or is reassembled from fragments. The size field
// of an inbound header is attacker-chosen, so the cap is enforced before
// any body allocation: an oversized message fails with ErrMessageSize
// instead of exhausting the node's memory. Component package transfers
// chunk below it.
const MaxMessageSize = 64 << 20

// Header is the decoded fixed GIOP header.
type Header struct {
	Version  Version
	Order    cdr.ByteOrder
	Fragment bool // more fragments follow (GIOP >= 1.1)
	Type     MsgType
	Size     uint32 // body size in bytes, excluding the header
}

// Message is a full GIOP message: header plus raw body bytes.
//
// Messages on the hot path are pooled: bodies read from the wire come
// from internal/bufpool and bodies built by the ORB alias a pooled
// cdr.Encoder. Release returns those resources; the layer that finishes
// with a message (the transport after writing a reply, the client after
// decoding one) is its single release point. A Message built with a
// plain composite literal has nothing pooled and Release on it only
// recycles the struct, so calling Release is always safe exactly once.
type Message struct {
	Header Header
	Body   []byte

	// pooled marks Body as owned by internal/bufpool.
	pooled bool
	// enc, when non-nil, owns the encoder whose buffer Body aliases.
	enc *cdr.Encoder
}

var messagePool = sync.Pool{New: func() any { return new(Message) }}

// NewMessage returns a pooled Message with the given header and body.
// The body is NOT owned (not returned to any pool on Release); use
// MessageFromEncoder or ReadMessagePooled for owned bodies.
func NewMessage(h Header, body []byte) *Message {
	m := messagePool.Get().(*Message)
	m.Header = h
	m.Body = body
	m.pooled = false
	m.enc = nil
	return m
}

// MessageFromEncoder returns a pooled Message whose body is the
// encoder's current stream. Ownership of the encoder transfers into the
// message: the caller must not touch e (or its Bytes) again, and the
// message's Release releases the encoder.
func MessageFromEncoder(h Header, e *cdr.Encoder) *Message {
	m := NewMessage(h, e.Bytes())
	m.enc = e
	return m
}

// Release returns the message's pooled resources (body buffer or owning
// encoder, and the struct itself). It must be called at most once, after
// which the message and any slice aliasing its body are invalid.
// Releasing nil is a no-op.
func (m *Message) Release() {
	if m == nil {
		return
	}
	if m.enc != nil {
		m.enc.Release()
		m.enc = nil
	} else if m.pooled {
		bufpool.Put(m.Body)
	}
	m.Body = nil
	m.pooled = false
	messagePool.Put(m)
}

// BodyDecoder returns a CDR decoder over the message body with alignment
// based at the end of the header, as GIOP requires.
func (m *Message) BodyDecoder() *cdr.Decoder {
	return cdr.NewDecoderAt(m.Body, m.Header.Order, HeaderLen)
}

// ResetBodyDecoder re-arms d over the message body, the allocation-free
// form of BodyDecoder for dispatch loops holding a reusable decoder.
func (m *Message) ResetBodyDecoder(d *cdr.Decoder) {
	d.Reset(m.Body, m.Header.Order, HeaderLen)
}

// NewBodyEncoder returns a CDR encoder for a message body, pre-based at
// stream offset 12 so alignment matches what BodyDecoder expects.
func NewBodyEncoder(order cdr.ByteOrder) *cdr.Encoder {
	return cdr.NewEncoderAt(order, HeaderLen)
}

// GetBodyEncoder returns a pooled CDR encoder for a message body,
// pre-based at stream offset 12. Release it, or transfer it into a
// message with MessageFromEncoder.
func GetBodyEncoder(order cdr.ByteOrder) *cdr.Encoder {
	return cdr.GetEncoder(order, HeaderLen)
}

// EncodeHeader renders the 12-byte header for a body of length size.
func EncodeHeader(h Header, size int) [HeaderLen]byte {
	var out [HeaderLen]byte
	copy(out[:4], magic[:])
	out[4] = h.Version.Major
	out[5] = h.Version.Minor
	flags := byte(h.Order)
	if h.Fragment && !(h.Version.Major == 1 && h.Version.Minor == 0) {
		flags |= 2
	}
	out[6] = flags
	out[7] = byte(h.Type)
	cdr.PutULongAt(out[:], 8, h.Order, uint32(size))
	return out
}

// DecodeHeader parses a 12-byte GIOP header.
func DecodeHeader(raw []byte) (Header, error) {
	var h Header
	if len(raw) < HeaderLen {
		return h, ErrShortMessage
	}
	if raw[0] != 'G' || raw[1] != 'I' || raw[2] != 'O' || raw[3] != 'P' {
		return h, ErrBadMagic
	}
	h.Version = Version{raw[4], raw[5]}
	if h.Version.Major != 1 || h.Version.Minor > 2 {
		return h, fmt.Errorf("%w: %v", ErrBadVersion, h.Version)
	}
	h.Order = cdr.ByteOrder(raw[6] & 1)
	h.Fragment = raw[6]&2 != 0
	h.Type = MsgType(raw[7])
	h.Size = cdr.ULongAt(raw, 8, h.Order)
	if h.Size > MaxMessageSize {
		return h, fmt.Errorf("%w: %d bytes (cap %d)", ErrMessageSize, h.Size, MaxMessageSize)
	}
	return h, nil
}

// WriteMessage frames and writes one message. It is the convenience
// form for cold paths; connection loops hold a *Writer, whose vectored
// writes reuse their scratch state across messages.
func WriteMessage(w io.Writer, h Header, body []byte) error {
	mw := NewWriter(w)
	return mw.WriteMessage(h, body)
}

// ReadMessagePooled reads one framed message into a pooled body buffer
// and a pooled Message struct. Ownership of both transfers to the
// caller; Release the message when the last reader of its body is done.
// The size cap is enforced on the untrusted header before the body
// allocation.
func ReadMessagePooled(r io.Reader) (*Message, error) {
	// The header scratch comes from the pool too: a stack array would
	// escape through the io.Reader interface call and cost an allocation
	// per message.
	hraw := bufpool.Get(HeaderLen)
	if _, err := io.ReadFull(r, hraw); err != nil {
		bufpool.Put(hraw)
		return nil, err
	}
	h, err := DecodeHeader(hraw)
	bufpool.Put(hraw)
	if err != nil {
		return nil, err
	}
	body := bufpool.Get(int(h.Size))
	if _, err := io.ReadFull(r, body); err != nil {
		bufpool.Put(body)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrShortMessage
		}
		return nil, err
	}
	m := NewMessage(h, body)
	m.pooled = true
	return m, nil
}

// ServiceContext is one entry of a GIOP service context list; CORBA-LC
// uses it to piggyback node identity and tracing data on requests.
type ServiceContext struct {
	ID   uint32
	Data []byte
}

// Service context IDs used by CORBA-LC (vendor range).
const (
	SvcNodeIdentity uint32 = 0x434C4300 // "CLC\0": sender node name
	SvcTracing      uint32 = 0x434C4301 // request hop trace
	SvcDeadline     uint32 = 0x434C4302 // absolute call deadline, µs since epoch
	SvcCallID       uint32 = 0x434C4303 // end-to-end call correlation ID
)

func encodeServiceContexts(e *cdr.Encoder, scs []ServiceContext) {
	e.WriteULong(uint32(len(scs)))
	for _, sc := range scs {
		e.WriteULong(sc.ID)
		e.WriteOctetSeq(sc.Data)
	}
}

// decodeServiceContextsInto decodes a service context list into *scs,
// reusing its capacity; every Data slice aliases the decoder's buffer.
func decodeServiceContextsInto(d *cdr.Decoder, scs *[]ServiceContext) error {
	n, err := d.ReadULong()
	if err != nil {
		return err
	}
	if uint32(d.Remaining())/8 < n {
		return cdr.ErrTooLong
	}
	*scs = (*scs)[:0]
	for i := uint32(0); i < n; i++ {
		var sc ServiceContext
		if sc.ID, err = d.ReadULong(); err != nil {
			return err
		}
		if sc.Data, err = d.ReadOctetSeqAlias(); err != nil {
			return err
		}
		*scs = append(*scs, sc)
	}
	return nil
}

// RequestHeader is the version-independent view of a GIOP Request header.
type RequestHeader struct {
	RequestID        uint32
	ResponseExpected bool
	ObjectKey        []byte
	Operation        string
	ServiceContexts  []ServiceContext
}

// EncodeRequest encodes a Request header (for the given GIOP version) into
// e, which must be a body encoder from NewBodyEncoder. The request body
// arguments must be appended to e afterwards (for 1.2 callers must first
// call AlignBody).
func EncodeRequest(e *cdr.Encoder, v Version, h *RequestHeader) error {
	switch v {
	case V10:
		encodeServiceContexts(e, h.ServiceContexts)
		e.WriteULong(h.RequestID)
		e.WriteBool(h.ResponseExpected)
		e.WriteOctetSeq(h.ObjectKey)
		e.WriteString(h.Operation)
		e.WriteOctetSeq(nil) // requesting principal (deprecated)
		return nil
	case V12:
		e.WriteULong(h.RequestID)
		if h.ResponseExpected {
			e.WriteOctet(3) // SYNC_WITH_TARGET
		} else {
			e.WriteOctet(0) // SYNC_NONE
		}
		e.WriteOctet(0) // reserved[3]
		e.WriteOctet(0)
		e.WriteOctet(0)
		e.WriteShort(0) // target address disposition: KeyAddr
		e.WriteOctetSeq(h.ObjectKey)
		e.WriteString(h.Operation)
		encodeServiceContexts(e, h.ServiceContexts)
		return nil
	}
	return fmt.Errorf("%w: %v", ErrBadVersion, v)
}

// DecodeRequestInto parses a Request header into h, reusing h's service
// context capacity. ObjectKey and every ServiceContext.Data ALIAS the
// decoder's buffer: they are valid only while the message body is, i.e.
// until the dispatching transport releases the message. This is the
// allocation-free form the ORB dispatch loop uses; anything retained
// past the dispatch must copy.
func DecodeRequestInto(d *cdr.Decoder, v Version, h *RequestHeader) error {
	return DecodeRequestIntoInterned(d, v, h, nil)
}

// DecodeRequestIntoInterned is DecodeRequestInto with an intern cache
// for the operation name (see cdr.ReadStringInterned); ops may be nil.
func DecodeRequestIntoInterned(d *cdr.Decoder, v Version, h *RequestHeader, ops map[string]string) error {
	readOp := func() (string, error) {
		if ops != nil {
			return d.ReadStringInterned(ops)
		}
		return d.ReadString()
	}
	var err error
	h.ObjectKey = nil
	h.Operation = ""
	switch v {
	case V10:
		if err = decodeServiceContextsInto(d, &h.ServiceContexts); err != nil {
			return err
		}
		if h.RequestID, err = d.ReadULong(); err != nil {
			return err
		}
		if h.ResponseExpected, err = d.ReadBool(); err != nil {
			return err
		}
		if h.ObjectKey, err = d.ReadOctetSeqAlias(); err != nil {
			return err
		}
		if h.Operation, err = readOp(); err != nil {
			return err
		}
		if _, err = d.ReadOctetSeqAlias(); err != nil { // principal
			return err
		}
		return nil
	case V12:
		if h.RequestID, err = d.ReadULong(); err != nil {
			return err
		}
		flags, err := d.ReadOctet()
		if err != nil {
			return err
		}
		h.ResponseExpected = flags == 3
		if _, err = d.ReadOctets(3); err != nil { // reserved
			return err
		}
		disp, err := d.ReadShort()
		if err != nil {
			return err
		}
		if disp != 0 {
			return fmt.Errorf("giop: unsupported target address disposition %d", disp)
		}
		if h.ObjectKey, err = d.ReadOctetSeqAlias(); err != nil {
			return err
		}
		if h.Operation, err = readOp(); err != nil {
			return err
		}
		return decodeServiceContextsInto(d, &h.ServiceContexts)
	}
	return fmt.Errorf("%w: %v", ErrBadVersion, v)
}

// ReplyHeader is the version-independent view of a GIOP Reply header.
type ReplyHeader struct {
	RequestID       uint32
	Status          ReplyStatus
	ServiceContexts []ServiceContext
}

// EncodeReplyPrelude encodes a Reply header carrying no service
// contexts and the given (typically optimistic) status, returning the
// offset of the status word within the encoder's Bytes. The reply fast
// path encodes NO_EXCEPTION up front, lets the servant stream results
// directly into the same encoder, and on failure truncates the results
// and patches the status via cdr.Encoder.PatchULong — every Reply
// status occupies the same four bytes, so the patch is always valid.
func EncodeReplyPrelude(e *cdr.Encoder, v Version, reqID uint32, status ReplyStatus) (statusOff int, err error) {
	switch v {
	case V10:
		e.WriteULong(0) // empty service context list
		e.WriteULong(reqID)
		e.Align(4)
		statusOff = e.Len()
		e.WriteULong(uint32(status))
		return statusOff, nil
	case V12:
		e.WriteULong(reqID)
		e.Align(4)
		statusOff = e.Len()
		e.WriteULong(uint32(status))
		e.WriteULong(0) // empty service context list
		return statusOff, nil
	}
	return 0, fmt.Errorf("%w: %v", ErrBadVersion, v)
}

// DecodeReplyInto parses a Reply header into h, reusing h's service
// context capacity. Every ServiceContext.Data ALIASES the decoder's
// buffer (valid until the reply message is released); this is the
// allocation-free form the client reply path uses.
func DecodeReplyInto(d *cdr.Decoder, v Version, h *ReplyHeader) error {
	var err error
	h.ServiceContexts = h.ServiceContexts[:0]
	switch v {
	case V10:
		if err = decodeServiceContextsInto(d, &h.ServiceContexts); err != nil {
			return err
		}
		if h.RequestID, err = d.ReadULong(); err != nil {
			return err
		}
		s, err := d.ReadULong()
		if err != nil {
			return err
		}
		h.Status = ReplyStatus(s)
		return nil
	case V12:
		if h.RequestID, err = d.ReadULong(); err != nil {
			return err
		}
		s, err := d.ReadULong()
		if err != nil {
			return err
		}
		h.Status = ReplyStatus(s)
		return decodeServiceContextsInto(d, &h.ServiceContexts)
	}
	return fmt.Errorf("%w: %v", ErrBadVersion, v)
}

// AlignBody pads to the 8-byte boundary that GIOP 1.2 requires between a
// Request/Reply header and its body. It is a no-op for GIOP 1.0 and for
// empty bodies (callers with no body must not call it).
func AlignBody(e *cdr.Encoder, v Version) {
	if v == V12 {
		e.Align(8)
	}
}

// AlignBodyDecode mirrors AlignBody on the decode side: it skips padding
// before a non-empty 1.2 body.
func AlignBodyDecode(d *cdr.Decoder, v Version) error {
	if v != V12 || d.Remaining() == 0 {
		return nil
	}
	pos := HeaderLen + d.Pos() // decoder base is HeaderLen
	pad := (8 - pos%8) % 8
	if pad > 0 {
		if _, err := d.ReadOctets(pad); err != nil {
			return err
		}
	}
	return nil
}

// CancelRequestHeader is a CancelRequest header: the client's notice that
// it no longer awaits the reply to RequestID. The layout is a single
// unsigned long in every GIOP version.
type CancelRequestHeader struct {
	RequestID uint32
}

// EncodeCancelRequest encodes a CancelRequest header.
func EncodeCancelRequest(e *cdr.Encoder, h *CancelRequestHeader) {
	e.WriteULong(h.RequestID)
}

// PeekRequestID extracts the request ID from a Request, Reply,
// LocateRequest, LocateReply or CancelRequest without decoding the rest
// of the header. In GIOP 1.2 every such header begins with the ID; 1.0
// Request and Reply headers prefix a service context list that must be
// skipped first.
func PeekRequestID(m *Message) (uint32, bool) {
	d := m.BodyDecoder()
	if m.Header.Version == V10 && (m.Header.Type == MsgRequest || m.Header.Type == MsgReply) {
		var scs []ServiceContext
		if err := decodeServiceContextsInto(d, &scs); err != nil {
			return 0, false
		}
	}
	id, err := d.ReadULong()
	if err != nil {
		return 0, false
	}
	return id, true
}

// LocateRequestHeader is a LocateRequest header (both versions carry a
// request id and an object key; 1.2 wraps the key in a target address).
type LocateRequestHeader struct {
	RequestID uint32
	ObjectKey []byte
}

// EncodeLocateRequest encodes a LocateRequest header.
func EncodeLocateRequest(e *cdr.Encoder, v Version, h *LocateRequestHeader) error {
	switch v {
	case V10:
		e.WriteULong(h.RequestID)
		e.WriteOctetSeq(h.ObjectKey)
		return nil
	case V12:
		e.WriteULong(h.RequestID)
		e.WriteShort(0) // KeyAddr
		e.WriteOctetSeq(h.ObjectKey)
		return nil
	}
	return fmt.Errorf("%w: %v", ErrBadVersion, v)
}

// DecodeLocateRequest parses a LocateRequest header.
func DecodeLocateRequest(d *cdr.Decoder, v Version) (*LocateRequestHeader, error) {
	h := &LocateRequestHeader{}
	var err error
	if h.RequestID, err = d.ReadULong(); err != nil {
		return nil, err
	}
	if v == V12 {
		disp, err := d.ReadShort()
		if err != nil {
			return nil, err
		}
		if disp != 0 {
			return nil, fmt.Errorf("giop: unsupported target address disposition %d", disp)
		}
	}
	if h.ObjectKey, err = d.ReadOctetSeq(); err != nil {
		return nil, err
	}
	return h, nil
}

// LocateReplyHeader is a LocateReply header.
type LocateReplyHeader struct {
	RequestID uint32
	Status    LocateStatus
}

// EncodeLocateReply encodes a LocateReply header (same layout in 1.0/1.2).
func EncodeLocateReply(e *cdr.Encoder, h *LocateReplyHeader) {
	e.WriteULong(h.RequestID)
	e.WriteULong(uint32(h.Status))
}

// DecodeLocateReply parses a LocateReply header.
func DecodeLocateReply(d *cdr.Decoder) (*LocateReplyHeader, error) {
	h := &LocateReplyHeader{}
	var err error
	if h.RequestID, err = d.ReadULong(); err != nil {
		return nil, err
	}
	s, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	h.Status = LocateStatus(s)
	return h, nil
}
