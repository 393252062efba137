package cohesion

// Fuzz the directory delta decoder: every delta a member applies arrives
// from a peer, and every upsert in it carries a NodeDesc of four IORs.

import (
	"bytes"
	"testing"

	"corbalc/internal/cdr"
	"corbalc/internal/ior"
)

// FuzzUnmarshalDelta decodes arbitrary bytes in either byte order. A
// decode never panics; an accepted delta re-marshals to bytes that
// decode and re-marshal byte-identically, and it owns its bytes
// (overwriting the input changes nothing in it).
func FuzzUnmarshalDelta(f *testing.F) {
	desc := func(name string) *NodeDesc {
		ref := ior.New("IDL:corbalc/NetworkCohesion:1.0", "10.0.0.7", 2809, []byte(name+"/cohesion"))
		ref.AddProfile(ior.TagCorbalcInProcess, []byte("orb-7\x00"+name))
		ref.AddProfile(ior.TagCorbalcVirtual, []byte(name+"\x00cohesion"))
		return &NodeDesc{Name: name, Capability: "workstation",
			Cohesion: ref, Registry: ref, Acceptor: ref, Resources: ref}
	}
	dd := &DirectoryDelta{
		From: 41, To: 42,
		Upserts: []DirUpsert{
			{Group: 0, Version: 42, Desc: desc("n001")},
			{Group: 3, Version: 42, Desc: desc("n002")},
		},
		Removes: []string{"n000"},
	}
	for _, little := range []bool{false, true} {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		e := cdr.NewEncoder(order)
		dd.Marshal(e)
		f.Add(little, e.Bytes())
		f.Add(little, e.Bytes()[:e.Len()/2]) // truncated inside an upsert

		e = cdr.NewEncoder(order) // hostile upsert count
		e.WriteULongLong(1)
		e.WriteULongLong(2)
		e.WriteULong(1 << 30)
		f.Add(little, e.Bytes())

		e = cdr.NewEncoder(order) // hostile profile count in the first IOR
		e.WriteULongLong(1)
		e.WriteULongLong(2)
		e.WriteULong(1)
		e.WriteLong(0)
		e.WriteULongLong(2)
		e.WriteString("n001")
		e.WriteString("workstation")
		e.WriteString("IDL:corbalc/NetworkCohesion:1.0")
		e.WriteULong(1 << 30)
		f.Add(little, e.Bytes())
	}

	f.Fuzz(func(t *testing.T, little bool, in []byte) {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		buf := append([]byte(nil), in...)
		got, err := UnmarshalDelta(cdr.NewDecoder(buf, order))
		if err != nil {
			return
		}
		marshal := func(dd *DirectoryDelta) []byte {
			e := cdr.NewEncoder(order)
			dd.Marshal(e)
			return e.Bytes()
		}
		first := marshal(got)
		again, err := UnmarshalDelta(cdr.NewDecoder(first, order))
		if err != nil {
			t.Fatalf("re-marshalled delta does not decode: %v", err)
		}
		if second := marshal(again); !bytes.Equal(second, first) {
			t.Fatalf("marshal∘decode is not stable:\n% x\n% x", first, second)
		}

		for i := range buf {
			buf[i] ^= 0xFF
		}
		if after := marshal(got); !bytes.Equal(after, first) {
			t.Fatalf("overwriting the input changed the decoded delta:\n% x\nwant\n% x", after, first)
		}
	})
}
