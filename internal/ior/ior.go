// Package ior implements CORBA Interoperable Object References: the
// in-memory IOR structure, the IIOP profile body, the stringified
// "IOR:<hex>" form, and the human-writable "corbaloc::host:port/key"
// form. IORs are how CORBA-LC nodes hand out references to their
// services (Resource Manager, Component Registry, ...) and to component
// instance ports.
package ior

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"iter"
	"math/bits"
	"net"
	"strconv"
	"strings"
	"unique"

	"corbalc/internal/cdr"
)

// Profile tags from the OMG registry.
const (
	TagInternetIOP      uint32 = 0 // IIOP
	TagMultipleComp     uint32 = 1
	TagCorbalcVirtual   uint32 = 0x434C4302 // CORBA-LC simnet endpoint (vendor tag)
	TagCorbalcInProcess uint32 = 0x434C4303 // same-process shortcut (vendor tag)
)

// TaggedProfile is one opaque profile of an IOR.
type TaggedProfile struct {
	Tag  uint32
	Data []byte
}

// IOR is an interoperable object reference: a repository type ID plus one
// or more transport profiles. The profiles are held packed in one block,
// each as a 4-byte tag, a uvarint body length and the body; Profiles and
// Profile read them in place.
type IOR struct {
	TypeID string
	id     unique.Handle[string] // keeps an interned TypeID canonical (set by Unmarshal)
	packed []byte
}

// IsNil reports whether the reference is the CORBA nil object reference
// (empty type ID and no profiles).
func (r *IOR) IsNil() bool { return r == nil || (r.TypeID == "" && len(r.packed) == 0) }

// IIOPProfile is the decoded body of a TAG_INTERNET_IOP profile.
type IIOPProfile struct {
	Major, Minor byte
	Host         string
	Port         uint16
	ObjectKey    []byte
}

// Addr returns the profile's host:port endpoint.
func (p *IIOPProfile) Addr() string { return net.JoinHostPort(p.Host, strconv.Itoa(int(p.Port))) }

// Errors returned by this package.
var (
	ErrNotIOR      = errors.New("ior: string does not begin with IOR:")
	ErrBadHex      = errors.New("ior: invalid hex in stringified IOR")
	ErrNoIIOP      = errors.New("ior: reference carries no IIOP profile")
	ErrBadCorbaloc = errors.New("ior: malformed corbaloc URL")
)

// New builds an IOR with a single IIOP profile.
func New(typeID, host string, port uint16, objectKey []byte) *IOR {
	p := (&IIOPProfile{Major: 1, Minor: 2, Host: host, Port: port, ObjectKey: objectKey}).Encode()
	return &IOR{TypeID: typeID, packed: appendProfile(nil, p.Tag, p.Data)}
}

// Encode renders the IIOP profile as a tagged profile whose data is a CDR
// encapsulation, per CORBA 2.4 §15.7.2.
func (p *IIOPProfile) Encode() TaggedProfile {
	outer := cdr.NewEncoder(cdr.BigEndian)
	outer.WriteEncapsulation(cdr.BigEndian, func(e *cdr.Encoder) {
		e.WriteOctet(p.Major)
		e.WriteOctet(p.Minor)
		e.WriteString(p.Host)
		e.WriteUShort(p.Port)
		e.WriteOctetSeq(p.ObjectKey)
		if p.Minor >= 1 {
			e.WriteULong(0) // empty tagged components sequence
		}
	})
	// The encapsulation helper wrote a ULong length + payload; strip the
	// length so Data is exactly the encapsulated octets.
	raw := outer.Bytes()
	return TaggedProfile{Tag: TagInternetIOP, Data: raw[4:]}
}

// DecodeIIOPProfile parses a TAG_INTERNET_IOP profile body.
func DecodeIIOPProfile(data []byte) (*IIOPProfile, error) {
	if len(data) == 0 {
		return nil, cdr.ErrUnderflow
	}
	d := cdr.NewDecoderAt(data[1:], cdr.ByteOrder(data[0]&1), 1)
	p := &IIOPProfile{}
	var err error
	if p.Major, err = d.ReadOctet(); err != nil {
		return nil, err
	}
	if p.Minor, err = d.ReadOctet(); err != nil {
		return nil, err
	}
	if p.Major != 1 {
		return nil, fmt.Errorf("ior: unsupported IIOP version %d.%d", p.Major, p.Minor)
	}
	if p.Host, err = d.ReadString(); err != nil {
		return nil, err
	}
	if p.Port, err = d.ReadUShort(); err != nil {
		return nil, err
	}
	if p.ObjectKey, err = d.ReadOctetSeq(); err != nil {
		return nil, err
	}
	// Tagged components (1.1+) are ignored if present.
	return p, nil
}

// IIOP returns the first IIOP profile of the reference.
func (r *IOR) IIOP() (*IIOPProfile, error) {
	if p := r.Profile(TagInternetIOP); p != nil {
		return DecodeIIOPProfile(p)
	}
	return nil, ErrNoIIOP
}

// appendProfile packs one profile onto b.
func appendProfile(b []byte, tag uint32, body []byte) []byte {
	//lint:ignore cdralign a packed block is this package's in-memory layout, never CDR
	return append(binary.AppendUvarint(binary.LittleEndian.AppendUint32(b, tag), uint64(len(body))), body...)
}

// profileAt unpacks the profile at offset i of a packed block: its tag,
// its body capped at its own length (so appending to it never writes
// into the next profile's header) and the offset of the next profile.
func profileAt(b []byte, i int) (tag uint32, body []byte, next int) {
	//lint:ignore cdralign a packed block is this package's in-memory layout, never CDR
	tag = binary.LittleEndian.Uint32(b[i:])
	//lint:ignore cdralign as above
	n, k := binary.Uvarint(b[i+4:])
	start := i + 4 + k
	next = start + int(n)
	return tag, b[start:next:next], next
}

// Profiles yields each profile's tag and body in order. A body is a
// sub-slice of the reference's packed block, capped at its own length:
// writing into it changes that profile alone, and appending to it copies.
func (r *IOR) Profiles() iter.Seq2[uint32, []byte] {
	return func(yield func(uint32, []byte) bool) {
		for i := 0; i < len(r.packed); {
			tag, body, next := profileAt(r.packed, i)
			if !yield(tag, body) {
				return
			}
			i = next
		}
	}
}

// Profile returns the raw data of the first profile with the given tag,
// or nil if absent.
func (r *IOR) Profile(tag uint32) []byte {
	for t, body := range r.Profiles() {
		if t == tag {
			return body
		}
	}
	return nil
}

// AddProfile appends a tagged profile, copying data. The block is
// reallocated every time, so an IOR never shares spare capacity with a
// copy of itself.
func (r *IOR) AddProfile(tag uint32, data []byte) {
	r.packed = appendProfile(r.packed[:len(r.packed):len(r.packed)], tag, data)
}

// Marshal encodes the IOR body (type ID + profiles) into e.
func (r *IOR) Marshal(e *cdr.Encoder) {
	e.WriteString(r.TypeID)
	n := uint32(0)
	for range r.Profiles() {
		n++
	}
	e.WriteULong(n)
	for tag, body := range r.Profiles() {
		e.WriteULong(tag)
		e.WriteOctetSeq(body)
	}
}

// Unmarshal decodes an IOR body from d. It allocates the IOR and one
// exact-size packed block, so the result never aliases d's buffer. The
// profiles are read twice: once to check every tag and body and to size
// the block, once to fill it. The type ID is interned: the handful every
// node exchanges are stored once, and a hostile one is collected with the
// last IOR that carries it.
func Unmarshal(d *cdr.Decoder) (*IOR, error) {
	typeID, err := d.ReadString()
	if err != nil {
		return nil, err
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint32(d.Remaining())/8 < n {
		return nil, cdr.ErrTooLong
	}
	profiles := *d
	size := 0
	for range n {
		if _, err := d.ReadULong(); err != nil {
			return nil, err
		}
		body, err := d.ReadOctetSeqAlias()
		if err != nil {
			return nil, err
		}
		size += 4 + (bits.Len(uint(len(body))|1)+6)/7 + len(body) // tag, uvarint length, body
	}
	r := &IOR{id: unique.Make(typeID)}
	r.TypeID = r.id.Value()
	r.packed = make([]byte, 0, size)
	for range n {
		tag, err := profiles.ReadULong()
		if err != nil {
			return nil, err
		}
		body, err := profiles.ReadOctetSeqAlias()
		if err != nil {
			return nil, err
		}
		r.packed = appendProfile(r.packed, tag, body)
	}
	return r, nil
}

// String renders the reference in the interoperable "IOR:<hex>" form: the
// hex dump of a CDR encapsulation of the IOR body.
func (r *IOR) String() string {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteEncapsulation(cdr.BigEndian, r.Marshal)
	// Strip the ULong length: stringified IORs hex-encode the
	// encapsulation octets directly.
	raw := e.Bytes()[4:]
	return "IOR:" + hex.EncodeToString(raw)
}

// Parse decodes a stringified reference. Accepted forms are "IOR:<hex>"
// and the IIOP corbaloc URL, "corbaloc::host:port/key" or
// "corbaloc:iiop:host:port/key".
func Parse(s string) (*IOR, error) {
	switch {
	case strings.HasPrefix(s, "IOR:"):
		return parseHex(s[len("IOR:"):])
	case strings.HasPrefix(s, "corbaloc:"):
		return parseCorbaloc(s[len("corbaloc:"):])
	default:
		return nil, ErrNotIOR
	}
}

func parseHex(h string) (*IOR, error) {
	raw, err := hex.DecodeString(h)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHex, err)
	}
	if len(raw) == 0 {
		return nil, cdr.ErrUnderflow
	}
	d := cdr.NewDecoderAt(raw[1:], cdr.ByteOrder(raw[0]&1), 1)
	return Unmarshal(d)
}

// parseCorbaloc handles one IIOP address, "[1.2@]host[:port]/key" after
// the protocol token ":" or its synonym "iiop:" (defaulting GIOP 1.2 and,
// per CORBA 3.0 §13.6.10.3, port 2809). The object key is kept verbatim
// apart from %XX unescaping.
func parseCorbaloc(rest string) (*IOR, error) {
	switch {
	case strings.HasPrefix(rest, "iiop:"):
		rest = rest[len("iiop:"):]
	case strings.HasPrefix(rest, ":"):
		rest = rest[1:]
	default:
		return nil, fmt.Errorf("%w: only iiop (corbaloc:: or corbaloc:iiop:) addresses supported", ErrBadCorbaloc)
	}
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return nil, fmt.Errorf("%w: missing /key", ErrBadCorbaloc)
	}
	addr, key := rest[:slash], rest[slash+1:]
	if key == "" {
		return nil, fmt.Errorf("%w: empty key", ErrBadCorbaloc)
	}
	// Optional "1.2@" version prefix.
	if at := strings.IndexByte(addr, '@'); at >= 0 {
		addr = addr[at+1:]
	}
	host, portStr := strings.TrimSuffix(strings.TrimPrefix(addr, "["), "]"), "2809"
	if strings.LastIndexByte(addr, ':') > strings.LastIndexByte(addr, ']') {
		var err error
		if host, portStr, err = net.SplitHostPort(addr); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCorbaloc, err)
		}
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return nil, fmt.Errorf("%w: bad port %q", ErrBadCorbaloc, portStr)
	}
	unescaped, err := unescapeKey(key)
	if err != nil {
		return nil, err
	}
	return New("", host, uint16(port), unescaped), nil
}

func unescapeKey(k string) ([]byte, error) {
	out := make([]byte, 0, len(k))
	for i := 0; i < len(k); i++ {
		if k[i] != '%' {
			out = append(out, k[i])
			continue
		}
		if i+2 >= len(k) {
			return nil, fmt.Errorf("%w: truncated %% escape", ErrBadCorbaloc)
		}
		b, err := hex.DecodeString(k[i+1 : i+3])
		if err != nil {
			return nil, fmt.Errorf("%w: bad %% escape", ErrBadCorbaloc)
		}
		out = append(out, b[0])
		i += 2
	}
	return out, nil
}
