package ior

import (
	"bytes"
	"errors"
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
		"corbaloc::hostonly/key",    // missing port
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

func TestCorbalocRoundTrip(t *testing.T) {
	r := New("", "192.168.1.5", 2809, []byte("Node/ResourceManager"))
	u, err := r.Corbaloc()
	if err != nil {
		t.Fatal(err)
	}
	if u != "corbaloc::192.168.1.5:2809/Node%2fResourceManager" &&
		u != "corbaloc::192.168.1.5:2809/Node%2FResourceManager" {
		// '/' must be escaped inside the key
		t.Logf("corbaloc = %q", u)
	}
	got, err := Parse(u)
	if err != nil {
		t.Fatal(err)
	}
	p, err := got.IIOP()
	if err != nil {
		t.Fatal(err)
	}
	if string(p.ObjectKey) != "Node/ResourceManager" {
		t.Fatalf("key = %q", p.ObjectKey)
	}
	if p.Port != 2809 || p.Host != "192.168.1.5" {
		t.Fatalf("profile = %+v", p)
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
	if got.TypeID != r.TypeID || len(got.Profiles) != 1 {
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
// block holding the IOR and its profile headers, the one copy of the
// profile bodies, and the type ID read before it is interned. Two live
// decodes share one copy of the type ID.
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
		if err != nil || len(got.Profiles) != 2 {
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
