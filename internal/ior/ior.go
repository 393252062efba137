// Package ior implements CORBA Interoperable Object References: the
// in-memory IOR structure, the IIOP profile body, the stringified
// "IOR:<hex>" form, and the human-writable "corbaloc::host:port/key"
// form. IORs are how CORBA-LC nodes hand out references to their
// services (Resource Manager, Component Registry, ...) and to component
// instance ports.
package ior

import (
	"encoding/hex"
	"errors"
	"fmt"
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
// or more transport profiles.
type IOR struct {
	TypeID   string
	Profiles []TaggedProfile
}

// IsNil reports whether the reference is the CORBA nil object reference
// (empty type ID and no profiles).
func (r *IOR) IsNil() bool { return r == nil || (r.TypeID == "" && len(r.Profiles) == 0) }

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
	p := &IIOPProfile{Major: 1, Minor: 2, Host: host, Port: port, ObjectKey: objectKey}
	return &IOR{TypeID: typeID, Profiles: []TaggedProfile{p.Encode()}}
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
	for _, tp := range r.Profiles {
		if tp.Tag == TagInternetIOP {
			return DecodeIIOPProfile(tp.Data)
		}
	}
	return nil, ErrNoIIOP
}

// Profile returns the raw data of the first profile with the given tag,
// or nil if absent.
func (r *IOR) Profile(tag uint32) []byte {
	for _, tp := range r.Profiles {
		if tp.Tag == tag {
			return tp.Data
		}
	}
	return nil
}

// AddProfile appends a tagged profile.
func (r *IOR) AddProfile(tag uint32, data []byte) {
	r.Profiles = append(r.Profiles, TaggedProfile{Tag: tag, Data: data})
}

// Marshal encodes the IOR body (type ID + profiles) into e.
func (r *IOR) Marshal(e *cdr.Encoder) {
	e.WriteString(r.TypeID)
	e.WriteULong(uint32(len(r.Profiles)))
	for _, p := range r.Profiles {
		e.WriteULong(p.Tag)
		e.WriteOctetSeq(p.Data)
	}
}

// block is what Unmarshal allocates for one reference: the IOR, room for
// the common two profile headers, and the handle that keeps the interned
// type ID canonical for as long as the IOR lives.
type block struct {
	r      IOR
	id     unique.Handle[string]
	inline [2]TaggedProfile
}

// Unmarshal decodes an IOR body from d. The IOR and its profile headers
// share one allocation and the profile bodies one private copy, so the
// result never aliases d's buffer; each Data is capped at its own length,
// so appending to one never writes into the next. The type ID is interned:
// the handful every node exchanges are stored once, and a hostile one is
// collected with the last IOR that carries it.
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
	b := &block{id: unique.Make(typeID)}
	b.r.TypeID = b.id.Value()
	if n <= uint32(len(b.inline)) {
		b.r.Profiles = b.inline[:n:n]
	} else {
		b.r.Profiles = make([]TaggedProfile, n)
	}
	total := 0
	for i := range b.r.Profiles {
		p := &b.r.Profiles[i]
		if p.Tag, err = d.ReadULong(); err != nil {
			return nil, err
		}
		if p.Data, err = d.ReadOctetSeqAlias(); err != nil {
			return nil, err
		}
		total += len(p.Data)
	}
	bodies := make([]byte, 0, total)
	for i := range b.r.Profiles {
		p := &b.r.Profiles[i]
		start := len(bodies)
		bodies = append(bodies, p.Data...)
		p.Data = bodies[start:len(bodies):len(bodies)]
	}
	return &b.r, nil
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
// and "corbaloc::host:port/key".
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

// parseCorbaloc handles the subset ":host:port/key" (the common
// "corbaloc::" IIOP form, defaulting GIOP 1.2). The object key is kept
// verbatim apart from %XX unescaping.
func parseCorbaloc(rest string) (*IOR, error) {
	if !strings.HasPrefix(rest, ":") {
		return nil, fmt.Errorf("%w: only iiop (corbaloc::) addresses supported", ErrBadCorbaloc)
	}
	rest = rest[1:]
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
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCorbaloc, err)
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

// Corbaloc renders the reference as a corbaloc URL if it has an IIOP
// profile and a printable key.
func (r *IOR) Corbaloc() (string, error) {
	p, err := r.IIOP()
	if err != nil {
		return "", err
	}
	var key strings.Builder
	for _, b := range p.ObjectKey {
		if b >= 0x21 && b <= 0x7E && b != '%' && b != '/' {
			key.WriteByte(b)
		} else {
			fmt.Fprintf(&key, "%%%02x", b)
		}
	}
	return fmt.Sprintf("corbaloc::%s/%s", p.Addr(), key.String()), nil
}
