package ior

import (
	"bytes"
	"encoding/binary"
	"testing"

	"corbalc/internal/cdr"
)

// mintLike builds a reference as an ORB mints one: an IIOP profile when
// host is set, then the in-process profile, then the virtual one.
func mintLike(typeID, host string, port uint16, orbID, vname, key string) *IOR {
	r := &IOR{TypeID: typeID}
	if host != "" {
		r = New(typeID, host, port, []byte(key))
	}
	r.AddProfile(TagCorbalcInProcess, []byte(orbID+"\x00"+key))
	if vname != "" {
		r.AddProfile(TagCorbalcVirtual, []byte(vname+"\x00"+key))
	}
	return r
}

func marshalled(r *IOR) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	r.Marshal(e)
	return e.Bytes()
}

// TestCutDeriveRoundTrip: for each layout an ORB mints, deriving from
// the cut endpoint under the reference's own type ID and key marshals
// byte-identically to the reference, and a sibling key yields the
// sibling the ORB would mint.
func TestCutDeriveRoundTrip(t *testing.T) {
	cases := []struct {
		name, host string
		port       uint16
		vname      string
	}{
		{"in-process only", "", 0, ""},
		{"simnet", "", 0, "n042"},
		{"iiop", "10.0.0.7", 2809, ""},
		{"iiop and simnet", "127.0.0.1", 65535, "node-7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := mintLike("IDL:corbalc/NetworkCohesion:1.0", tc.host, tc.port, "orb-0123456789abcdef", tc.vname, "node/cohesion")
			ep, err := Cut(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckEndpoint(ep); err != nil {
				t.Fatalf("CheckEndpoint refuses what Cut returned: %v", err)
			}
			if got := Derive(ep, r.TypeID, "node/cohesion"); !bytes.Equal(marshalled(got), marshalled(r)) {
				t.Fatalf("derived\n% x\nminted\n% x", marshalled(got), marshalled(r))
			}
			sib := mintLike("IDL:corbalc/ComponentRegistry:1.0", tc.host, tc.port, "orb-0123456789abcdef", tc.vname, "node/registry")
			if got := Derive(ep, sib.TypeID, "node/registry"); !bytes.Equal(marshalled(got), marshalled(sib)) {
				t.Fatalf("derived sibling\n% x\nminted\n% x", marshalled(got), marshalled(sib))
			}
			if again, err := Cut(sib); err != nil || !bytes.Equal(again, ep) {
				t.Fatalf("a sibling cuts to %q, %v; want %q", again, err, ep)
			}
		})
	}
}

// TestCutRefuses: a reference without an endpoint form is refused,
// never cut lossily.
func TestCutRefuses(t *testing.T) {
	twoKeys := New("IDL:x:1.0", "h", 1, []byte("a"))
	twoKeys.AddProfile(TagCorbalcInProcess, []byte("orb\x00b"))
	foreign := New("IDL:x:1.0", "h", 1, []byte("a"))
	foreign.AddProfile(TagMultipleComp, []byte("x"))
	noNUL := &IOR{TypeID: "IDL:x:1.0"}
	noNUL.AddProfile(TagCorbalcVirtual, []byte("n001"))
	little := &IOR{TypeID: "IDL:x:1.0"}
	little.AddProfile(TagInternetIOP, iiopBody(true, "h", 1, "a"))
	nulHost := New("IDL:x:1.0", "h\x00st", 1, []byte("a"))
	for name, r := range map[string]*IOR{
		"no profiles":              {TypeID: "IDL:x:1.0"},
		"two keys":                 twoKeys,
		"foreign tag":              foreign,
		"virtual body with no key": noNUL,
		"little-endian IIOP body":  little,
		"NUL in the host":          nulHost,
	} {
		if ep, err := Cut(r); err == nil {
			t.Errorf("%s: Cut = %q, want an error", name, ep)
		}
	}
}

// TestCheckEndpointRefuses: bytes no Cut returns are refused.
func TestCheckEndpointRefuses(t *testing.T) {
	good := appendProfile(nil, TagCorbalcVirtual, []byte("n001"))
	nonCanonical := binary.LittleEndian.AppendUint32(nil, TagCorbalcVirtual)
	nonCanonical = append(nonCanonical, 0x84, 0x00, 'n', '0', '0', '1') // 4 as a two-byte uvarint
	hostile := binary.LittleEndian.AppendUint32(nil, TagCorbalcVirtual)
	hostile = binary.AppendUvarint(hostile, 1<<40)
	for name, ep := range map[string][]byte{
		"empty":                nil,
		"truncated header":     good[:3],
		"truncated body":       good[:len(good)-1],
		"trailing byte":        append(good[:len(good):len(good)], 0),
		"non-canonical length": nonCanonical,
		"hostile length":       hostile,
		"foreign tag":          appendProfile(nil, TagMultipleComp, []byte("x")),
		"NUL in a name":        appendProfile(nil, TagCorbalcInProcess, []byte("or\x00b")),
		"short IIOP body":      appendProfile(nil, TagInternetIOP, []byte{1, 2, 0}),
		"IIOP 2.0":             appendProfile(nil, TagInternetIOP, []byte{2, 0, 0, 1, 'h'}),
		"NUL in the IIOP host": appendProfile(nil, TagInternetIOP, []byte{1, 2, 0, 1, 'h', 0}),
	} {
		if CheckEndpoint(ep) == nil {
			t.Errorf("%s: CheckEndpoint accepts % x", name, ep)
		}
	}
	if err := CheckEndpoint(good); err != nil {
		t.Errorf("CheckEndpoint refuses a virtual endpoint: %v", err)
	}
}
