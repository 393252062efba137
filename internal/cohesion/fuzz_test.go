package cohesion

// Fuzz the directory delta decoder: every delta a member applies arrives
// from a peer, and every upsert in it carries an entry whose endpoint the
// member derives references from. A join's argument is an entry decoded
// by the same function.

import (
	"bytes"
	"testing"

	"corbalc/internal/cdr"
	"corbalc/internal/ior"
	"corbalc/internal/node"
)

// FuzzUnmarshalDelta decodes arbitrary bytes in either byte order. A
// decode never panics; an accepted delta re-marshals to bytes that
// decode and re-marshal byte-identically, and it owns its bytes
// (overwriting the input changes nothing in it). Every reference derived
// from an accepted upsert marshals, decodes and re-marshals
// byte-identically.
func FuzzUnmarshalDelta(f *testing.F) {
	entry := func(name string) *Entry {
		key := node.NetworkCohesion.Key()
		ref := ior.New(node.NetworkCohesion.RepoID(), "10.0.0.7", 2809, []byte(key))
		ref.AddProfile(ior.TagCorbalcInProcess, []byte("orb-7\x00"+key))
		ref.AddProfile(ior.TagCorbalcVirtual, []byte(name+"\x00"+key))
		ep, err := ior.Cut(ref)
		if err != nil {
			f.Fatal(err)
		}
		return &Entry{Name: name, Capability: "workstation", endpoint: ep}
	}
	dd := &DirectoryDelta{
		From: 41, To: 42,
		Upserts: []DirUpsert{
			{Group: 0, Version: 42, Desc: entry("n001")},
			{Group: 3, Version: 42, Desc: entry("n002")},
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

		e = cdr.NewEncoder(order) // hostile endpoint length in the first upsert
		e.WriteULongLong(1)
		e.WriteULongLong(2)
		e.WriteULong(1)
		e.WriteLong(0)
		e.WriteULongLong(2)
		e.WriteString("n001")
		e.WriteString("workstation")
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
		marshal := func(m func(*cdr.Encoder)) []byte {
			e := cdr.NewEncoder(order)
			m(e)
			return e.Bytes()
		}
		first := marshal(got.Marshal)
		again, err := UnmarshalDelta(cdr.NewDecoder(first, order))
		if err != nil {
			t.Fatalf("re-marshalled delta does not decode: %v", err)
		}
		if second := marshal(again.Marshal); !bytes.Equal(second, first) {
			t.Fatalf("marshal∘decode is not stable:\n% x\n% x", first, second)
		}

		for _, up := range got.Upserts {
			for svc := node.NetworkCohesion; svc <= node.EventService; svc++ {
				ref := marshal(up.Desc.Ref(svc).Marshal)
				back, err := ior.Unmarshal(cdr.NewDecoder(ref, order))
				if err != nil {
					t.Fatalf("%s: derived reference %d does not decode: %v", up.Desc.Name, svc, err)
				}
				if remarshalled := marshal(back.Marshal); !bytes.Equal(remarshalled, ref) {
					t.Fatalf("%s: derived reference %d is not stable:\n% x\n% x", up.Desc.Name, svc, ref, remarshalled)
				}
			}
		}

		for i := range buf {
			buf[i] ^= 0xFF
		}
		if after := marshal(got.Marshal); !bytes.Equal(after, first) {
			t.Fatalf("overwriting the input changed the decoded delta:\n% x\nwant\n% x", after, first)
		}
	})
}
