package ior

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"corbalc/internal/cdr"
	"corbalc/internal/race"
)

func TestIIOPProfileRoundTrip(t *testing.T) {
	r := New("IDL:corbalc/Node:1.0", "10.0.0.7", 2809, []byte("node/main"))
	p, err := r.IIOP()
	if err != nil {
		t.Fatal(err)
	}
	if p.Host != "10.0.0.7" || p.Port != 2809 || string(p.ObjectKey) != "node/main" {
		t.Fatalf("profile = %+v", p)
	}
	if p.Addr() != "10.0.0.7:2809" {
		t.Fatalf("addr = %q", p.Addr())
	}
}

func TestStringifyParse(t *testing.T) {
	r := New("IDL:corbalc/ComponentRegistry:1.0", "host.example", 12345, []byte{0, 1, 2, 0xFF})
	s := r.String()
	if !strings.HasPrefix(s, "IOR:") {
		t.Fatalf("stringified = %q", s)
	}
	got, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.TypeID != r.TypeID {
		t.Errorf("type id = %q", got.TypeID)
	}
	p, err := got.IIOP()
	if err != nil {
		t.Fatal(err)
	}
	if p.Host != "host.example" || p.Port != 12345 || !bytes.Equal(p.ObjectKey, []byte{0, 1, 2, 0xFF}) {
		t.Fatalf("profile = %+v", p)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("nonsense"); !errors.Is(err, ErrNotIOR) {
		t.Errorf("err = %v", err)
	}
	if _, err := Parse("IOR:zz"); !errors.Is(err, ErrBadHex) {
		t.Errorf("err = %v", err)
	}
	if _, err := Parse("IOR:"); err == nil {
		t.Error("empty IOR accepted")
	}
	for _, bad := range []string{
		"corbaloc:rir:/NameService", // unsupported scheme
		"corbaloc:iiopx:h:1/k",      // unsupported scheme
		"corbaloc::h:1",             // missing key
		"corbaloc::h:1/",            // empty key
		"corbaloc::h:99999/k",       // port overflow
		"corbaloc::h:1/k%2",         // truncated escape
		"corbaloc::h:1/k%zz",        // bad escape
	} {
		if _, err := Parse(bad); !errors.Is(err, ErrBadCorbaloc) {
			t.Errorf("Parse(%q) err = %v, want ErrBadCorbaloc", bad, err)
		}
	}
}

// TestCorbalocRoundTrip parses a key carrying an escaped '/', in
// either hex case, back to its bytes.
func TestCorbalocRoundTrip(t *testing.T) {
	for _, u := range []string{
		"corbaloc::192.168.1.5:2809/Node%2fResourceManager",
		"corbaloc::192.168.1.5:2809/Node%2FResourceManager",
	} {
		got, err := Parse(u)
		if err != nil {
			t.Fatal(err)
		}
		p, err := got.IIOP()
		if err != nil {
			t.Fatal(err)
		}
		if string(p.ObjectKey) != "Node/ResourceManager" || p.Port != 2809 || p.Host != "192.168.1.5" {
			t.Fatalf("Parse(%q) = %+v", u, p)
		}
	}
}

func TestCorbalocVersionPrefix(t *testing.T) {
	r, err := Parse("corbaloc::1.2@somehost:900/TheKey")
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.IIOP()
	if err != nil {
		t.Fatal(err)
	}
	if p.Host != "somehost" || p.Port != 900 || string(p.ObjectKey) != "TheKey" {
		t.Fatalf("profile = %+v", p)
	}
}

// TestCorbalocIIOPForms parses the IIOP address forms of the corbaloc
// grammar (CORBA 3.0 §13.6.10): "iiop:" is a synonym of ":", the version
// prefix is optional, and a missing port means 2809.
func TestCorbalocIIOPForms(t *testing.T) {
	for _, c := range []struct {
		in   string
		host string
		port uint16
	}{
		{"corbaloc::h:1234/k", "h", 1234},
		{"corbaloc:iiop:h:1234/k", "h", 1234},
		{"corbaloc:iiop:1.2@h:1234/k", "h", 1234},
		{"corbaloc::h/k", "h", 2809},
		{"corbaloc:iiop:1.0@h/k", "h", 2809},
		{"corbaloc::[::1]:900/k", "::1", 900},
		{"corbaloc::[::1]/k", "::1", 2809},
	} {
		r, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		p, err := r.IIOP()
		if err != nil || p.Host != c.host || p.Port != c.port || string(p.ObjectKey) != "k" {
			t.Errorf("Parse(%q) = %+v, %v; want %s port %d key k", c.in, p, err, c.host, c.port)
		}
	}
}

func TestNilReference(t *testing.T) {
	var r *IOR
	if !r.IsNil() {
		t.Error("nil pointer not nil reference")
	}
	if !(&IOR{}).IsNil() {
		t.Error("empty IOR not nil reference")
	}
	if (New("IDL:x:1.0", "h", 1, nil)).IsNil() {
		t.Error("real IOR reported nil")
	}
}

func TestExtraProfilesPreserved(t *testing.T) {
	r := New("IDL:corbalc/Node:1.0", "h", 1, []byte("k"))
	r.AddProfile(TagCorbalcVirtual, []byte("vnode-7"))
	got, err := Parse(r.String())
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Profile(TagCorbalcVirtual)) != "vnode-7" {
		t.Fatalf("virtual profile = %q", got.Profile(TagCorbalcVirtual))
	}
	if got.Profile(0xEEEE) != nil {
		t.Error("absent profile returned data")
	}
}

func TestMarshalUnmarshalViaCDR(t *testing.T) {
	r := New("IDL:x:1.0", "a-host", 7, []byte("key"))
	e := cdr.NewEncoder(cdr.LittleEndian)
	r.Marshal(e)
	got, err := Unmarshal(cdr.NewDecoder(e.Bytes(), cdr.LittleEndian))
	if err != nil {
		t.Fatal(err)
	}
	if got.TypeID != r.TypeID || !bytes.Equal(got.Profile(TagInternetIOP), r.Profile(TagInternetIOP)) {
		t.Fatalf("got %+v", got)
	}
}

func TestHostileProfileCount(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString("IDL:x:1.0")
	e.WriteULong(1 << 30)
	if _, err := Unmarshal(cdr.NewDecoder(e.Bytes(), cdr.BigEndian)); !errors.Is(err, cdr.ErrTooLong) {
		t.Errorf("hostile count err = %v", err)
	}
}

// TestUnmarshalAllocs holds the decode of a two-profile reference, the
// shape every directory entry carries four of, to three allocations: the
// IOR, its packed profile block, and the type ID read before it is
// interned. Two live decodes share one copy of the type ID.
func TestUnmarshalAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations of its own")
	}
	r := &IOR{TypeID: "IDL:corbalc/NetworkCohesion:1.0"}
	r.AddProfile(TagCorbalcInProcess, []byte("orb-7\x00cohesion"))
	r.AddProfile(TagCorbalcVirtual, []byte("n042\x00cohesion"))
	e := cdr.NewEncoder(cdr.BigEndian)
	r.Marshal(e)
	var d cdr.Decoder
	allocs := testing.AllocsPerRun(1000, func() {
		d.Reset(e.Bytes(), cdr.BigEndian, 0)
		got, err := Unmarshal(&d)
		if err != nil || got.Profile(TagCorbalcVirtual) == nil {
			t.Fatalf("Unmarshal = %+v, %v", got, err)
		}
	})
	if allocs > 3 {
		t.Errorf("decoding a two-profile IOR allocates %.0f times, want at most 3", allocs)
	}
	a, errA := Unmarshal(cdr.NewDecoder(e.Bytes(), cdr.BigEndian))
	b, errB := Unmarshal(cdr.NewDecoder(e.Bytes(), cdr.BigEndian))
	if errA != nil || errB != nil || unsafe.StringData(a.TypeID) != unsafe.StringData(b.TypeID) {
		t.Errorf("two live decodes of one type ID hold two copies of it (%v, %v)", errA, errB)
	}
}

// entryIOR is the shape of a directory entry's reference: a 32-byte
// in-process profile and an 18-byte virtual one, marshalled.
func entryIOR() []byte {
	r := &IOR{TypeID: "IDL:corbalc/NetworkCohesion:1.0"}
	r.AddProfile(TagCorbalcInProcess, []byte("orb-0123456789abcdef\x00cohesion/12"))
	r.AddProfile(TagCorbalcVirtual, []byte("node-0042\x00cohesion"))
	e := cdr.NewEncoder(cdr.BigEndian)
	r.Marshal(e)
	return e.Bytes()
}

// TestUnmarshalLiveBytes holds what a decoded entry-shaped reference
// keeps alive: the IOR and one packed block (48 + 64 B), against 176 B
// for a header block with inline profile headers plus a body copy.
func TestUnmarshalLiveBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const n = 10000
	raw := entryIOR()
	keep := make([]*IOR, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		r, err := Unmarshal(cdr.NewDecoder(raw, cdr.BigEndian))
		if err != nil {
			t.Fatal(err)
		}
		keep[i] = r
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	runtime.KeepAlive(keep)
	if per > 120 {
		t.Errorf("a decoded entry-shaped IOR holds %d B live, want at most 120", per)
	}
}

// TestProfileLookupAllocs holds the per-call profile reads (localKey
// scans for the in-process profile on every invoke) to no allocation.
func TestProfileLookupAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations of its own")
	}
	r, err := Unmarshal(cdr.NewDecoder(entryIOR(), cdr.BigEndian))
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(1000, func() {
		if r.Profile(TagCorbalcVirtual) == nil {
			t.Fatal("virtual profile missing")
		}
	}); a != 0 {
		t.Errorf("Profile allocates %.0f times, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		n := 0
		for _, body := range r.Profiles() {
			n += len(body)
		}
		if n != 50 {
			t.Fatalf("profile bodies hold %d bytes, want 50", n)
		}
	}); a != 0 {
		t.Errorf("ranging over Profiles allocates %.0f times, want 0", a)
	}
}

// Property: IOR round-trips through its stringified form for arbitrary
// type IDs, keys, hosts and ports.
func TestQuickStringifyRoundTrip(t *testing.T) {
	f := func(typeID string, key []byte, port uint16) bool {
		if strings.ContainsRune(typeID, 0) {
			return true // NUL cannot appear in a CDR string
		}
		r := New(typeID, "host", port, key)
		got, err := Parse(r.String())
		if err != nil {
			return false
		}
		p, err := got.IIOP()
		if err != nil {
			return false
		}
		return got.TypeID == typeID && p.Port == port && bytes.Equal(p.ObjectKey, key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parse never panics on arbitrary strings.
func TestQuickParseGarbage(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		_, _ = Parse("IOR:" + s)
		_, _ = Parse("corbaloc::" + s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
