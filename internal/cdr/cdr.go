// Package cdr implements the CORBA Common Data Representation (CDR)
// transfer syntax used by GIOP messages and encapsulations.
//
// CDR aligns every primitive on a boundary equal to its size, measured
// from the start of the enclosing message or encapsulation, and supports
// both big-endian and little-endian byte orders (the sender chooses and
// flags its choice; the receiver adapts). This package provides an
// Encoder and a Decoder over byte slices, plus helpers for the CDR
// "encapsulation" construct: a length-prefixed octet sequence whose first
// octet carries the byte-order flag of the embedded stream.
package cdr

import (
	"errors"
	"fmt"
	"math"
)

// ByteOrder identifies the byte order of a CDR stream. CDR encodes it as
// a single octet: 0 for big-endian, 1 for little-endian.
type ByteOrder byte

const (
	// BigEndian is network byte order (flag octet 0).
	BigEndian ByteOrder = 0
	// LittleEndian is the x86-native order (flag octet 1).
	LittleEndian ByteOrder = 1
)

func (o ByteOrder) String() string {
	if o == BigEndian {
		return "big-endian"
	}
	return "little-endian"
}

// Errors returned by the Decoder.
var (
	ErrUnderflow  = errors.New("cdr: buffer underflow")
	ErrBadString  = errors.New("cdr: malformed string")
	ErrBadBoolean = errors.New("cdr: boolean octet not 0 or 1")
	ErrTooLong    = errors.New("cdr: sequence length exceeds remaining buffer")
)

// Encoder serialises values into an internal buffer using CDR alignment
// rules. The zero value is not usable; call NewEncoder.
type Encoder struct {
	buf   []byte
	order ByteOrder
	// base is the stream position corresponding to buf[0]; alignment is
	// computed relative to it so that an encoder can continue a GIOP
	// message body whose header already consumed some bytes.
	base int
}

// NewEncoder returns an Encoder producing a stream in the given byte
// order, with alignment computed as if the first byte written were at
// stream offset 0.
func NewEncoder(order ByteOrder) *Encoder {
	return &Encoder{order: order}
}

// NewEncoderAt returns an Encoder whose first written byte is considered
// to be at stream offset base. GIOP uses this to encode a message body
// aligned after the 12-byte header.
func NewEncoderAt(order ByteOrder, base int) *Encoder {
	return &Encoder{order: order, base: base}
}

// Reset re-arms the encoder for a new stream in the given order and at
// the given base, keeping the grown buffer capacity so steady-state
// encoding stops allocating.
func (e *Encoder) Reset(order ByteOrder, base int) {
	e.buf = e.buf[:0]
	e.order = order
	e.base = base
}

// Truncate discards all but the first n encoded bytes. It is how the
// reply fast path backs out optimistically-encoded results when the
// servant raises instead of returning.
func (e *Encoder) Truncate(n int) { e.buf = e.buf[:n] }

// PatchULong overwrites the 32-bit value at byte offset off of the
// encoded stream (offset into Bytes, not the aligned stream position).
// The caller must have written the original value with WriteULong so the
// offset is properly aligned.
func (e *Encoder) PatchULong(off int, v uint32) { PutULongAt(e.buf, off, e.order, v) }

// Bytes returns the encoded stream. The returned slice aliases the
// encoder's buffer; it is valid until the next Write call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Align pads the stream with zero octets until the next write position is
// a multiple of n (n must be a power of two: 1, 2, 4 or 8).
func (e *Encoder) Align(n int) {
	pos := e.base + len(e.buf)
	pad := (n - pos%n) % n
	for i := 0; i < pad; i++ {
		e.buf = append(e.buf, 0)
	}
}

// WriteOctet appends a single octet (no alignment needed).
func (e *Encoder) WriteOctet(v byte) { e.buf = append(e.buf, v) }

// WriteBool appends a CDR boolean (one octet, 0 or 1).
func (e *Encoder) WriteBool(v bool) {
	if v {
		e.WriteOctet(1)
	} else {
		e.WriteOctet(0)
	}
}

// WriteChar appends a CDR char (single ISO 8859-1 octet).
func (e *Encoder) WriteChar(v byte) { e.WriteOctet(v) }

// WriteUShort appends an unsigned short aligned on 2.
func (e *Encoder) WriteUShort(v uint16) {
	e.Align(2)
	if e.order == BigEndian {
		e.buf = append(e.buf, byte(v>>8), byte(v))
	} else {
		e.buf = append(e.buf, byte(v), byte(v>>8))
	}
}

// WriteShort appends a signed short aligned on 2.
func (e *Encoder) WriteShort(v int16) { e.WriteUShort(uint16(v)) }

// WriteULong appends an unsigned long (32 bits) aligned on 4.
func (e *Encoder) WriteULong(v uint32) {
	e.Align(4)
	if e.order == BigEndian {
		e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	} else {
		e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
}

// WriteLong appends a signed long (32 bits) aligned on 4.
func (e *Encoder) WriteLong(v int32) { e.WriteULong(uint32(v)) }

// PutULongAt stores a 32-bit value at a fixed offset of an
// already-framed buffer in the given byte order. It exists for message
// headers (GIOP patches the size field at offset 8 after the body is
// encoded) so that no other package needs to assemble bytes by hand;
// alignment is the caller's contract since the offset is fixed by the
// protocol.
func PutULongAt(buf []byte, off int, order ByteOrder, v uint32) {
	if order == BigEndian {
		buf[off], buf[off+1], buf[off+2], buf[off+3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	} else {
		buf[off], buf[off+1], buf[off+2], buf[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
}

// ULongAt loads the 32-bit value PutULongAt stored at a fixed offset.
func ULongAt(buf []byte, off int, order ByteOrder) uint32 {
	if order == BigEndian {
		return uint32(buf[off])<<24 | uint32(buf[off+1])<<16 | uint32(buf[off+2])<<8 | uint32(buf[off+3])
	}
	return uint32(buf[off+3])<<24 | uint32(buf[off+2])<<16 | uint32(buf[off+1])<<8 | uint32(buf[off])
}

// WriteULongLong appends an unsigned long long (64 bits) aligned on 8.
func (e *Encoder) WriteULongLong(v uint64) {
	e.Align(8)
	if e.order == BigEndian {
		e.buf = append(e.buf,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	} else {
		e.buf = append(e.buf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
}

// WriteLongLong appends a signed long long aligned on 8.
func (e *Encoder) WriteLongLong(v int64) { e.WriteULongLong(uint64(v)) }

// WriteFloat appends an IEEE-754 single-precision float aligned on 4.
func (e *Encoder) WriteFloat(v float32) { e.WriteULong(math.Float32bits(v)) }

// WriteDouble appends an IEEE-754 double-precision float aligned on 8.
func (e *Encoder) WriteDouble(v float64) { e.WriteULongLong(math.Float64bits(v)) }

// WriteString appends a CDR string: ulong length (including the
// terminating NUL), the bytes, then a NUL octet.
func (e *Encoder) WriteString(s string) {
	e.WriteULong(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// WriteOctetSeq appends a sequence<octet>: ulong length then the bytes.
func (e *Encoder) WriteOctetSeq(b []byte) {
	e.WriteULong(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// WriteStringSeq appends a sequence<string>.
func (e *Encoder) WriteStringSeq(ss []string) {
	e.WriteULong(uint32(len(ss)))
	for _, s := range ss {
		e.WriteString(s)
	}
}

// WriteEncapsulation appends a CDR encapsulation: a length-prefixed octet
// sequence whose payload starts with a byte-order octet followed by the
// body produced by fn on a fresh encoder. Alignment inside the
// encapsulation restarts at zero, per the CDR rules.
func (e *Encoder) WriteEncapsulation(order ByteOrder, fn func(*Encoder)) {
	inner := NewEncoderAt(order, 1) // the order octet occupies offset 0
	fn(inner)
	e.WriteULong(uint32(1 + inner.Len()))
	e.WriteOctet(byte(order))
	e.buf = append(e.buf, inner.Bytes()...)
}

// Decoder extracts values from a CDR stream.
type Decoder struct {
	buf   []byte
	order ByteOrder
	pos   int
	base  int
}

// NewDecoder returns a Decoder over buf in the given byte order, with
// buf[0] at stream offset 0.
func NewDecoder(buf []byte, order ByteOrder) *Decoder {
	return &Decoder{buf: buf, order: order}
}

// NewDecoderAt returns a Decoder whose buf[0] sits at stream offset base
// for alignment purposes.
func NewDecoderAt(buf []byte, order ByteOrder, base int) *Decoder {
	return &Decoder{buf: buf, order: order, base: base}
}

// Reset re-arms the decoder over a new buffer, so dispatch loops can
// reuse one Decoder value instead of allocating per message.
func (d *Decoder) Reset(buf []byte, order ByteOrder, base int) {
	d.buf = buf
	d.order = order
	d.base = base
	d.pos = 0
}

// Remaining reports the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Pos returns the current offset within the buffer.
func (d *Decoder) Pos() int { return d.pos }

func (d *Decoder) align(n int) error {
	pos := d.base + d.pos
	pad := (n - pos%n) % n
	if d.pos+pad > len(d.buf) {
		return ErrUnderflow
	}
	d.pos += pad
	return nil
}

func (d *Decoder) need(n int) error {
	if d.pos+n > len(d.buf) {
		return ErrUnderflow
	}
	return nil
}

// ReadOctet reads one octet.
func (d *Decoder) ReadOctet() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.pos]
	d.pos++
	return v, nil
}

// ReadBool reads a CDR boolean, rejecting values other than 0 and 1.
func (d *Decoder) ReadBool() (bool, error) {
	v, err := d.ReadOctet()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, ErrBadBoolean
	}
}

// ReadChar reads a CDR char octet.
func (d *Decoder) ReadChar() (byte, error) { return d.ReadOctet() }

// ReadUShort reads an unsigned short aligned on 2.
func (d *Decoder) ReadUShort() (uint16, error) {
	if err := d.align(2); err != nil {
		return 0, err
	}
	if err := d.need(2); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 2
	if d.order == BigEndian {
		return uint16(b[0])<<8 | uint16(b[1]), nil
	}
	return uint16(b[1])<<8 | uint16(b[0]), nil
}

// ReadShort reads a signed short aligned on 2.
func (d *Decoder) ReadShort() (int16, error) {
	v, err := d.ReadUShort()
	return int16(v), err
}

// ReadULong reads an unsigned long aligned on 4.
func (d *Decoder) ReadULong() (uint32, error) {
	if err := d.align(4); err != nil {
		return 0, err
	}
	if err := d.need(4); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 4
	if d.order == BigEndian {
		return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
	}
	return uint32(b[3])<<24 | uint32(b[2])<<16 | uint32(b[1])<<8 | uint32(b[0]), nil
}

// ReadLong reads a signed long aligned on 4.
func (d *Decoder) ReadLong() (int32, error) {
	v, err := d.ReadULong()
	return int32(v), err
}

// ReadULongLong reads an unsigned long long aligned on 8.
func (d *Decoder) ReadULongLong() (uint64, error) {
	if err := d.align(8); err != nil {
		return 0, err
	}
	if err := d.need(8); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 8
	if d.order == BigEndian {
		return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
			uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7]), nil
	}
	return uint64(b[7])<<56 | uint64(b[6])<<48 | uint64(b[5])<<40 | uint64(b[4])<<32 |
		uint64(b[3])<<24 | uint64(b[2])<<16 | uint64(b[1])<<8 | uint64(b[0]), nil
}

// ReadLongLong reads a signed long long aligned on 8.
func (d *Decoder) ReadLongLong() (int64, error) {
	v, err := d.ReadULongLong()
	return int64(v), err
}

// ReadFloat reads a single-precision float aligned on 4.
func (d *Decoder) ReadFloat() (float32, error) {
	v, err := d.ReadULong()
	return math.Float32frombits(v), err
}

// ReadDouble reads a double-precision float aligned on 8.
func (d *Decoder) ReadDouble() (float64, error) {
	v, err := d.ReadULongLong()
	return math.Float64frombits(v), err
}

// ReadString reads a CDR string, checking the terminating NUL.
func (d *Decoder) ReadString() (string, error) {
	b, err := d.ReadStringAlias()
	return string(b), err
}

// ReadStringAlias is ReadString without the copy: the string's bytes,
// without the NUL, alias the decoder's buffer as ReadOctetSeqAlias's do.
func (d *Decoder) ReadStringAlias() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		// Tolerated on the wire by some ORBs: a zero length means an
		// empty string with no NUL.
		return nil, nil
	}
	if uint32(d.Remaining()) < n {
		return nil, ErrTooLong
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	if b[n-1] != 0 {
		return nil, ErrBadString
	}
	return b[: n-1 : n-1], nil
}

// maxInternedStrings bounds an intern cache so a peer cycling through
// distinct values cannot grow it without limit; past the bound the cache
// stops learning but reads stay correct.
const maxInternedStrings = 256

// ReadStringInterned is ReadString through a caller-owned intern cache:
// a value already cached is returned without allocating. Dispatch loops
// use it for operation names, which draw from a small fixed vocabulary,
// so the per-request string allocation disappears after warm-up.
func (d *Decoder) ReadStringInterned(cache map[string]string) (string, error) {
	b, err := d.ReadStringAlias()
	if err != nil {
		return "", err
	}
	if s, ok := cache[string(b)]; ok { // keyed lookup: no conversion alloc
		return s, nil
	}
	s := string(b)
	if len(cache) < maxInternedStrings {
		cache[s] = s
	}
	return s, nil
}

// ReadOctets reads exactly n raw bytes. The returned slice aliases the
// decoder's buffer.
func (d *Decoder) ReadOctets(n int) ([]byte, error) {
	if err := d.need(n); err != nil {
		return nil, err
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// ReadOctetSeq reads a sequence<octet>, copying the payload.
func (d *Decoder) ReadOctetSeq() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint32(d.Remaining()) < n {
		return nil, ErrTooLong
	}
	out := make([]byte, n)
	copy(out, d.buf[d.pos:])
	d.pos += int(n)
	return out, nil
}

// ReadOctetSeqAlias reads a sequence<octet> without copying: the
// returned slice aliases the decoder's buffer and is only valid while
// that buffer is — for pooled message bodies, until the message is
// released. Hot-path header decoding uses it for fields consumed before
// the release point; anything retained longer must copy.
func (d *Decoder) ReadOctetSeqAlias() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint32(d.Remaining()) < n {
		return nil, ErrTooLong
	}
	out := d.buf[d.pos : d.pos+int(n) : d.pos+int(n)]
	d.pos += int(n)
	return out, nil
}

// Detach returns a decoder over a private copy of the undecoded
// remainder, positioned and aligned identically to the original stream.
// It is the escape hatch for values that must outlive a pooled buffer:
// detach first, release the buffer, decode at leisure.
func (d *Decoder) Detach() *Decoder {
	rest := append([]byte(nil), d.buf[d.pos:]...)
	return &Decoder{buf: rest, order: d.order, base: d.base + d.pos}
}

// ReadStringSeq reads a sequence<string>.
func (d *Decoder) ReadStringSeq() ([]string, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	// Each string costs at least 4 bytes (a zero length, which ReadString
	// accepts as empty); guard against a hostile length that would make
	// us allocate unboundedly.
	if uint32(d.Remaining())/4 < n {
		return nil, ErrTooLong
	}
	out := make([]string, n)
	for i := range out {
		out[i], err = d.ReadString()
		if err != nil {
			return nil, fmt.Errorf("string %d of %d: %w", i, n, err)
		}
	}
	return out, nil
}

// ReadEncapsulation reads a CDR encapsulation and returns a fresh Decoder
// positioned at its body, honouring the embedded byte-order flag.
func (d *Decoder) ReadEncapsulation() (*Decoder, error) {
	body, err := d.ReadOctetSeq()
	if err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, ErrUnderflow
	}
	order := ByteOrder(body[0] & 1)
	return NewDecoderAt(body[1:], order, 1), nil
}
