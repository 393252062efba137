package cohesion

// Fuzz the directory decoders that read a peer's bytes: every delta a
// member applies arrives from a peer, and every upsert in it carries an
// entry whose endpoint the member derives references from. A join's
// argument is an entry decoded by the same function. Every sync_pull
// decodes the puller's version vector at the root and the root's patch
// at the puller.

import (
	"bytes"
	"maps"
	"slices"
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
	entry := func(name string, version uint64) *Entry {
		key := node.NetworkCohesion.Key()
		ref := ior.New(node.NetworkCohesion.RepoID(), "10.0.0.7", 2809, []byte(key))
		ref.AddProfile(ior.TagCorbalcInProcess, []byte("orb-7\x00"+key))
		ref.AddProfile(ior.TagCorbalcVirtual, []byte(name+"\x00"+key))
		ep, err := ior.Cut(ref)
		if err != nil {
			f.Fatal(err)
		}
		return &Entry{Name: name, Capability: "workstation", endpoint: ep, version: version}
	}
	dd := &DirectoryDelta{
		From: 41, To: 42,
		Upserts: []DirUpsert{
			{Group: 0, Desc: entry("n001", 42)},
			{Group: 3, Desc: entry("n002", 42)},
		},
		Removes: []string{"n000"},
	}
	for _, little := range []bool{false, true} {
		order := byteOrder(little)
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
		order := byteOrder(little)
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

// byteOrder is the CDR byte order a fuzz input's flag selects.
func byteOrder(little bool) cdr.ByteOrder {
	if little {
		return cdr.LittleEndian
	}
	return cdr.BigEndian
}

// fuzzPatchDir is a three-member directory in two groups, the source of
// the patch and version-vector seeds.
func fuzzPatchDir() *Directory {
	dir := NewDirectory()
	for _, name := range []string{"n00", "n01", "n02"} {
		dir.assign(testEntry(name), 2)
	}
	return dir
}

// FuzzUnmarshalVersionVector decodes arbitrary bytes in either byte
// order. A decode never panics; an accepted vector re-marshals to bytes
// that decode to the same vector and re-marshal byte-identically.
func FuzzUnmarshalVersionVector(f *testing.F) {
	vv := fuzzPatchDir().VersionVector()
	for _, little := range []bool{false, true} {
		e := cdr.NewEncoder(byteOrder(little))
		MarshalVersionVector(e, vv)
		f.Add(little, e.Bytes())
		f.Add(little, e.Bytes()[:e.Len()-3]) // truncated inside the last version

		e = cdr.NewEncoder(byteOrder(little)) // hostile count
		e.WriteULong(1 << 30)
		f.Add(little, e.Bytes())

		e = cdr.NewEncoder(byteOrder(little)) // one name twice
		e.WriteULong(2)
		for v := uint64(1); v <= 2; v++ {
			e.WriteString("n00")
			e.WriteULongLong(v)
		}
		f.Add(little, e.Bytes())
	}

	f.Fuzz(func(t *testing.T, little bool, in []byte) {
		order := byteOrder(little)
		got, err := UnmarshalVersionVector(cdr.NewDecoder(in, order))
		if err != nil {
			return
		}
		e := cdr.NewEncoder(order)
		MarshalVersionVector(e, got)
		first := e.Bytes()
		again, err := UnmarshalVersionVector(cdr.NewDecoder(first, order))
		if err != nil {
			t.Fatalf("re-marshalled vector does not decode: %v", err)
		}
		if !maps.Equal(again, got) {
			t.Fatalf("decode∘marshal changed the vector: %v, want %v", again, got)
		}
		e = cdr.NewEncoder(order)
		MarshalVersionVector(e, again)
		if second := e.Bytes(); !bytes.Equal(second, first) {
			t.Fatalf("marshal∘decode is not stable:\n% x\n% x", first, second)
		}
	})
}

// FuzzUnmarshalPatch decodes arbitrary bytes in either byte order. A
// decode never panics; an accepted patch re-marshals to bytes that
// decode to the same patch and re-marshal byte-identically, and it owns
// its bytes (overwriting the input changes nothing in it).
func FuzzUnmarshalPatch(f *testing.F) {
	dir := fuzzPatchDir()
	stale := dir.VersionVector()
	delete(stale, "n02") // the puller lacks n02: the patch ships its entry
	for _, little := range []bool{false, true} {
		for _, vv := range []map[string]uint64{nil, stale, dir.VersionVector()} {
			e := cdr.NewEncoder(byteOrder(little))
			dir.BuildPatch(vv).Marshal(e)
			f.Add(little, e.Bytes())
			f.Add(little, e.Bytes()[:e.Len()/2]) // truncated
		}

		e := cdr.NewEncoder(byteOrder(little)) // hostile group count
		e.WriteULongLong(7)
		e.WriteULong(1 << 30)
		f.Add(little, e.Bytes())
	}

	f.Fuzz(func(t *testing.T, little bool, in []byte) {
		order := byteOrder(little)
		buf := append([]byte(nil), in...)
		got, err := UnmarshalPatch(cdr.NewDecoder(buf, order))
		if err != nil {
			return
		}
		marshal := func(p *DirectoryPatch) []byte {
			e := cdr.NewEncoder(order)
			p.Marshal(e)
			return e.Bytes()
		}
		first := marshal(got)
		again, err := UnmarshalPatch(cdr.NewDecoder(first, order))
		if err != nil {
			t.Fatalf("re-marshalled patch does not decode: %v", err)
		}
		if !samePatch(again, got) {
			t.Fatalf("decode∘marshal changed the patch: %+v, want %+v", again, got)
		}
		if second := marshal(again); !bytes.Equal(second, first) {
			t.Fatalf("marshal∘decode is not stable:\n% x\n% x", first, second)
		}

		for i := range buf {
			buf[i] ^= 0xFF
		}
		if after := marshal(got); !bytes.Equal(after, first) {
			t.Fatalf("overwriting the input changed the decoded patch:\n% x\nwant\n% x", after, first)
		}
	})
}

// samePatch reports whether two patches carry the same epoch, groups,
// versions and upserts.
func samePatch(a, b *DirectoryPatch) bool {
	sameUpsert := func(x, y DirUpsert) bool {
		return x.Group == y.Group && x.Desc.Name == y.Desc.Name && x.Desc.Capability == y.Desc.Capability &&
			x.Desc.version == y.Desc.version && bytes.Equal(x.Desc.endpoint, y.Desc.endpoint)
	}
	return a.Epoch == b.Epoch && slices.EqualFunc(a.Groups, b.Groups, slices.Equal) &&
		maps.Equal(a.Versions, b.Versions) && slices.EqualFunc(a.Upserts, b.Upserts, sameUpsert)
}
