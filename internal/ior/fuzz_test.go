package ior

// Fuzz the IOR body decoder, which every directory entry, event target
// and deployment reply goes through. Seeds are assembled byte by byte
// from the CORBA layout (string type_id; sequence<TaggedProfile>, each a
// ulong tag and a sequence<octet>), not by this package's encoder.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"corbalc/internal/cdr"
)

// rawIOR assembles an IOR body in the given byte order: a ulong is
// aligned on 4 from the start of the body, a string carries its NUL.
type rawIOR struct {
	order binary.AppendByteOrder
	b     []byte
}

func (w *rawIOR) ulong(v uint32) *rawIOR {
	for len(w.b)%4 != 0 {
		w.b = append(w.b, 0)
	}
	w.b = w.order.AppendUint32(w.b, v)
	return w
}

func (w *rawIOR) str(s string) *rawIOR {
	w.ulong(uint32(len(s) + 1))
	w.b = append(append(w.b, s...), 0)
	return w
}

func (w *rawIOR) octets(p []byte) *rawIOR {
	w.ulong(uint32(len(p)))
	w.b = append(w.b, p...)
	return w
}

// iiopBody is a TAG_INTERNET_IOP 1.2 profile body for host:port/key: an
// encapsulation whose first octet is its byte-order flag.
func iiopBody(little bool, host string, port uint16, key string) []byte {
	order, flag := binary.AppendByteOrder(binary.BigEndian), byte(0)
	if little {
		order, flag = binary.LittleEndian, 1
	}
	b := []byte{flag, 1, 2, 0} // flag, IIOP 1.2, pad to 4
	b = order.AppendUint32(b, uint32(len(host)+1))
	b = append(append(b, host...), 0)
	for len(b)%2 != 0 {
		b = append(b, 0)
	}
	b = order.AppendUint16(b, port)
	for len(b)%4 != 0 {
		b = append(b, 0)
	}
	b = order.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	for len(b)%4 != 0 {
		b = append(b, 0)
	}
	return order.AppendUint32(b, 0) // no tagged components
}

// refIOR is what the reference decoder returns: the type ID and each
// profile in its own copy.
type refIOR struct {
	typeID   string
	profiles []TaggedProfile
}

// decodeCopying is the reference decoder: the same layout read with the
// plain copying reads, one allocation per field.
func decodeCopying(d *cdr.Decoder) (*refIOR, error) {
	r := &refIOR{}
	var err error
	if r.typeID, err = d.ReadString(); err != nil {
		return nil, err
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint32(d.Remaining())/8 < n {
		return nil, cdr.ErrTooLong
	}
	for ; n > 0; n-- {
		var p TaggedProfile
		if p.Tag, err = d.ReadULong(); err != nil {
			return nil, err
		}
		if p.Data, err = d.ReadOctetSeq(); err != nil {
			return nil, err
		}
		r.profiles = append(r.profiles, p)
	}
	return r, nil
}

// copyOf is r as the reference decoder would hold it.
func copyOf(r *IOR) *refIOR {
	out := &refIOR{typeID: r.TypeID}
	for tag, body := range r.Profiles() {
		out.profiles = append(out.profiles, TaggedProfile{Tag: tag, Data: bytes.Clone(body)})
	}
	return out
}

// sameIOR reports whether r holds want's type ID and profiles. The body
// of profile skip (if any) is exempt, but not its tag or its length.
func sameIOR(r *IOR, want *refIOR, skip int) bool {
	if r.TypeID != want.typeID {
		return false
	}
	i := 0
	for tag, body := range r.Profiles() {
		if i >= len(want.profiles) {
			return false
		}
		w := want.profiles[i]
		if tag != w.Tag || len(body) != len(w.Data) || (i != skip && !bytes.Equal(body, w.Data)) {
			return false
		}
		i++
	}
	return i == len(want.profiles)
}

// FuzzUnmarshal decodes arbitrary bytes in either byte order. A decode
// agrees with the copying reference, errors where it errors, and never
// panics. A decoded IOR marshals and decodes back to itself, owns its
// bytes (overwriting the input changes nothing), and keeps its profiles
// apart (appending to or writing into one yielded body leaves every
// other profile, and every packed tag and length, as it was).
func FuzzUnmarshal(f *testing.F) {
	for _, little := range []bool{false, true} {
		order := binary.AppendByteOrder(binary.BigEndian)
		if little {
			order = binary.LittleEndian
		}
		raw := func() *rawIOR { return &rawIOR{order: order} }
		bodies := [][]byte{
			iiopBody(little, "10.0.0.7", 2809, "node/main"),
			[]byte("orb-7\x00cohesion"),
			[]byte("n042\x00cohesion"),
		}
		tags := []uint32{TagInternetIOP, TagCorbalcInProcess, TagCorbalcVirtual}
		for n := 0; n <= 3; n++ {
			w := raw().str("IDL:corbalc/NetworkCohesion:1.0").ulong(uint32(n))
			for i := 0; i < n; i++ {
				w.ulong(tags[i]).octets(bodies[i])
			}
			f.Add(little, w.b)
			if n == 3 {
				f.Add(little, w.b[:len(w.b)-5]) // truncated inside the last body
			}
		}
		f.Add(little, raw().str("").ulong(0).b)                                // the nil reference
		f.Add(little, raw().ulong(0).ulong(1).ulong(7).octets(nil).b)          // zero-length type ID, empty body
		f.Add(little, raw().str("IDL:x:1.0").ulong(1<<30).b)                   // hostile profile count
		f.Add(little, raw().str("IDL:x:1.0").ulong(1).ulong(0).ulong(1<<31).b) // hostile body length
	}

	f.Fuzz(func(t *testing.T, little bool, in []byte) {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		buf := append([]byte(nil), in...)
		r, err := Unmarshal(cdr.NewDecoder(buf, order))
		want, werr := decodeCopying(cdr.NewDecoder(in, order))
		if (err == nil) != (werr == nil) {
			t.Fatalf("Unmarshal err = %v, reference err = %v", err, werr)
		}
		if err != nil {
			return
		}
		if !sameIOR(r, want, -1) {
			t.Fatalf("Unmarshal = %+v, reference = %+v", copyOf(r), want)
		}

		e := cdr.NewEncoder(order)
		r.Marshal(e)
		again, err := Unmarshal(cdr.NewDecoder(e.Bytes(), order))
		if err != nil || !sameIOR(again, want, -1) {
			t.Fatalf("decode∘marshal = %+v, %v; want %+v", again, err, want)
		}

		for i := range buf {
			buf[i] ^= 0xFF
		}
		if !sameIOR(r, want, -1) {
			t.Fatalf("overwriting the input changed the decoded IOR: %+v, want %+v", copyOf(r), want)
		}

		i := 0
		for _, body := range r.Profiles() {
			_ = append(body, 0xA5, 0xA5, 0xA5, 0xA5)
			flip := func() {
				for j := range body {
					body[j] ^= 0x5A
				}
			}
			flip()
			if !sameIOR(r, want, i) {
				t.Fatalf("writing profile %d changed another profile or a header: %+v, want %+v", i, copyOf(r), want)
			}
			flip()
			i++
		}
	})
}
