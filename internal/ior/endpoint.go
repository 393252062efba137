package ior

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"strings"
)

// An endpoint is where one ORB's objects live, without naming any of
// them: a reference's profiles with the object key cut out, packed as an
// IOR packs its profiles (4-byte tag, uvarint length, body). Each body is
// the profile's own body minus the key:
//
//   - TAG_INTERNET_IOP: major, minor, the port big-endian, then the host;
//   - the in-process profile: the ORB ID (the body is "orb-id\0key");
//   - the virtual profile: the endpoint name (the body is "name\0key").
//
// Cut and Derive are inverses on the references this repository mints:
// Derive(Cut(r), r.TypeID, key) marshals byte-identically to r when every
// profile of r carries key. So a directory can hold one endpoint per node
// and derive each service's reference, by its well-known key, where it is
// invoked.

// ErrBadEndpoint reports a reference that has no endpoint form, or bytes
// that are not one.
var ErrBadEndpoint = errors.New("ior: not an endpoint")

// Cut returns r's endpoint. It refuses a reference with no profiles, with
// a profile of another tag, whose profiles name different object keys,
// or whose IIOP profile IIOPProfile.Encode would not reproduce.
func Cut(r *IOR) ([]byte, error) {
	var ep, key []byte
	for tag, body := range r.Profiles() {
		var k []byte
		switch tag {
		case TagInternetIOP:
			p, err := DecodeIIOPProfile(body)
			if err != nil || !bytes.Equal(p.Encode().Data, body) || strings.IndexByte(p.Host, 0) >= 0 {
				return nil, ErrBadEndpoint
			}
			k = p.ObjectKey
			//lint:ignore cdralign an endpoint body is this package's in-memory layout, never CDR
			body = append(binary.BigEndian.AppendUint16([]byte{p.Major, p.Minor}, p.Port), p.Host...)
		case TagCorbalcInProcess, TagCorbalcVirtual:
			i := bytes.IndexByte(body, 0)
			if i < 0 {
				return nil, ErrBadEndpoint
			}
			body, k = body[:i], body[i+1:]
		default:
			return nil, ErrBadEndpoint
		}
		if len(ep) > 0 && !bytes.Equal(k, key) {
			return nil, ErrBadEndpoint
		}
		key, ep = k, appendProfile(ep, tag, body)
	}
	if len(ep) == 0 {
		return nil, ErrBadEndpoint
	}
	return ep, nil
}

// endpointAt reads the profile at offset i of an endpoint: its tag, its
// body and the offset of the next profile. ok is false when the bytes
// there are not a profile header with a canonical, in-bounds length.
func endpointAt(ep []byte, i int) (tag uint32, body []byte, next int, ok bool) {
	if len(ep)-i < 5 {
		return 0, nil, 0, false
	}
	//lint:ignore cdralign an endpoint is this package's in-memory layout, never CDR
	tag = binary.LittleEndian.Uint32(ep[i:])
	//lint:ignore cdralign as above
	n, k := binary.Uvarint(ep[i+4:])
	if k <= 0 || k != (bits.Len64(n|1)+6)/7 || n > uint64(len(ep)-i-4-k) {
		return 0, nil, 0, false
	}
	next = i + 4 + k + int(n)
	return tag, ep[i+4+k : next : next], next, true
}

// CheckEndpoint reports whether ep is an endpoint Cut could have
// returned: at least one profile, every length canonical and in bounds,
// every tag one of the three, IIOP bodies of version 1, and no NUL inside
// a host, ORB ID or endpoint name.
func CheckEndpoint(ep []byte) error {
	if len(ep) == 0 {
		return ErrBadEndpoint
	}
	for i := 0; i < len(ep); {
		tag, body, next, ok := endpointAt(ep, i)
		if !ok {
			return ErrBadEndpoint
		}
		i = next
		switch tag {
		case TagInternetIOP:
			if len(body) < 4 || body[0] != 1 {
				return ErrBadEndpoint
			}
			body = body[4:]
		case TagCorbalcInProcess, TagCorbalcVirtual:
		default:
			return ErrBadEndpoint
		}
		if bytes.IndexByte(body, 0) >= 0 {
			return ErrBadEndpoint
		}
	}
	return nil
}

// Derive returns the reference to the object under key at endpoint ep,
// of type typeID. ep must be one Cut returned or CheckEndpoint accepted;
// the reference holds every profile up to the first that is not one.
func Derive(ep []byte, typeID, key string) *IOR {
	r := &IOR{TypeID: typeID}
	for i := 0; i < len(ep); {
		tag, body, next, ok := endpointAt(ep, i)
		if !ok || tag == TagInternetIOP && len(body) < 4 {
			return r
		}
		i = next
		switch tag {
		case TagInternetIOP:
			//lint:ignore cdralign an endpoint is this package's in-memory layout, never CDR
			port := binary.BigEndian.Uint16(body[2:])
			p := &IIOPProfile{Major: body[0], Minor: body[1], Host: string(body[4:]), Port: port, ObjectKey: []byte(key)}
			r.packed = appendProfile(r.packed, tag, p.Encode().Data)
		default:
			r.packed = appendProfile(r.packed, tag, append(append(body[:len(body):len(body)], 0), key...))
		}
	}
	return r
}
