package idl

import (
	"strings"
	"testing"
)

const sampleIDL = `
// CORBA-LC core service interfaces (subset for tests).
#pragma prefix "corbalc"

module corbalc {
  typedef sequence<string> StringSeq;
  typedef sequence<octet> Blob;
  typedef StringSeq Names; // alias of alias

  const long MAX_GROUP = 16;
  const string VERSION = "1.0";

  enum PortKind { PROVIDES, USES, EMITS, CONSUMES };

  struct PortDesc {
    string name;
    PortKind kind;
    string repo_id;
  };

  exception NotFound { string what; };

  interface Display;  // forward declaration

  interface GUIPart {
    readonly attribute string region;
    attribute long z_order;
    void draw(in Display target) raises (NotFound);
  };

  interface Display {
    void paint(in Blob pixels, in long x, in long y);
    long width();
    oneway void invalidate();
  };

  module gui {
    interface Whiteboard : ::corbalc::GUIPart {
      void add_stroke(in sequence<double> points);
    };
  };
};
`

func parseSample(t *testing.T) *Repository {
	t.Helper()
	r := NewRepository()
	if err := r.ParseString("sample.idl", sampleIDL); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLexerBasics(t *testing.T) {
	toks, err := lexAll(`module a { const string s = "x\n\"y"; }; // c
/* block
comment */ interface B;`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind != tokEOF {
			texts = append(texts, tk.text)
		}
	}
	want := []string{"module", "a", "{", "const", "string", "s", "=", "x\n\"y", ";", "}", ";", "interface", "B", ";"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Fatalf("tokens = %v", texts)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{
		`"unterminated`,
		`/* unterminated`,
		`"bad \q escape"`,
		`@`,
	} {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q) accepted", src)
		}
	}
}

func TestParseSample(t *testing.T) {
	r := parseSample(t)

	seq, ok := r.LookupType("corbalc::StringSeq")
	if !ok || seq.Kind != KindAlias || seq.Resolve().Kind != KindSequence {
		t.Fatalf("StringSeq = %+v", seq)
	}
	names, _ := r.LookupType("corbalc::Names")
	if names.Resolve().Kind != KindSequence || names.Resolve().Elem != TString {
		t.Fatalf("alias-of-alias Names resolves to %v", names.Resolve())
	}

	pk, ok := r.LookupType("corbalc::PortKind")
	if !ok || pk.Kind != KindEnum || len(pk.Labels) != 4 || pk.Labels[2] != "EMITS" {
		t.Fatalf("PortKind = %+v", pk)
	}
	if ord, ok := pk.EnumOrdinal("CONSUMES"); !ok || ord != 3 {
		t.Fatalf("CONSUMES ordinal = %d, %v", ord, ok)
	}

	pd, ok := r.LookupType("corbalc::PortDesc")
	if !ok || pd.Kind != KindStruct || len(pd.Fields) != 3 {
		t.Fatalf("PortDesc = %+v", pd)
	}
	if pd.Fields[1].Type != pk {
		t.Fatalf("PortDesc.kind type = %v", pd.Fields[1].Type)
	}
	if pd.RepoID() != "IDL:corbalc/PortDesc:1.0" {
		t.Fatalf("repo id = %q", pd.RepoID())
	}
	if byID, ok := r.LookupByRepoID("IDL:corbalc/PortDesc:1.0"); !ok || byID != pd {
		t.Fatal("lookup by repo id failed")
	}

	c, ok := r.consts["corbalc::MAX_GROUP"]
	if !ok || c.Value.(int64) != 16 {
		t.Fatalf("MAX_GROUP = %+v", c)
	}
	v, ok := r.consts["corbalc::VERSION"]
	if !ok || v.Value.(string) != "1.0" {
		t.Fatalf("VERSION = %+v", v)
	}
}

func TestForwardDeclarationResolved(t *testing.T) {
	r := parseSample(t)
	gp, ok := r.LookupType("corbalc::GUIPart")
	if !ok {
		t.Fatal("GUIPart missing")
	}
	op, ok := gp.LookupOperation("draw")
	if !ok {
		t.Fatal("draw missing")
	}
	// The parameter references the forward-declared Display, which must
	// now be the *defined* interface.
	dp := op.Params[0].Type
	if dp.Kind != KindInterface || dp.Iface == nil {
		t.Fatalf("Display param = %+v", dp)
	}
	if _, ok := dp.LookupOperation("paint"); !ok {
		t.Fatal("Display.paint missing through forward-declared reference")
	}
}

func TestInterfaceInheritance(t *testing.T) {
	r := parseSample(t)
	wb, ok := r.LookupType("corbalc::gui::Whiteboard")
	if !ok {
		t.Fatal("Whiteboard missing")
	}
	ops := wb.AllOperations()
	var names []string
	for _, op := range ops {
		names = append(names, op.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"_get_region", "_get_z_order", "_set_z_order", "draw", "add_stroke"} {
		if !strings.Contains(joined, want) {
			t.Errorf("operations %v missing %s", names, want)
		}
	}
	// readonly attribute must not have a setter.
	if strings.Contains(joined, "_set_region") {
		t.Error("readonly attribute grew a setter")
	}
	if bases := wb.Iface.Bases; len(bases) != 1 || bases[0].Resolve().RepoID() != "IDL:corbalc/GUIPart:1.0" {
		t.Errorf("Whiteboard bases = %v, want GUIPart alone", bases)
	}
}

func TestOnewayValidation(t *testing.T) {
	r := parseSample(t)
	disp, _ := r.LookupType("corbalc::Display")
	op, ok := disp.LookupOperation("invalidate")
	if !ok || !op.Oneway {
		t.Fatalf("invalidate = %+v", op)
	}
}

func TestParserErrors(t *testing.T) {
	cases := map[string]string{
		"undefined type":    `interface I { void f(in Missing m); };`,
		"oneway non-void":   `interface I { oneway long f(); };`,
		"oneway out param":  `interface I { oneway void f(out string s); };`,
		"raises non-except": `struct S { long x; }; interface I { void f() raises (S); };`,
		"inherit non-iface": `struct S { long x; }; interface I : S { };`,
		"redeclared":        `struct S { long x; }; struct S { long y; };`,
		"redeclared const":  `const long C = 1; const long C = 2;`,
		"forward undefined": `interface Never;`,
		"unterminated mod":  `module m { struct S { long x; };`,
		"bad const type":    `struct S { long x; }; const S c = 1;`,
		"unsigned nonsense": `interface I { void f(in unsigned string s); };`,
		"missing semicolon": `struct S { long x; }`,
		"garbage":           `%%%`,
	}
	for name, src := range cases {
		r := NewRepository()
		if err := r.ParseString(name, src); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

func TestScopeResolutionSearchesOutward(t *testing.T) {
	src := `
module outer {
  struct T { long v; };
  module inner {
    struct T { string v; };
    struct UsesInner { T t; };          // resolves to inner::T
    struct UsesOuter { ::outer::T t; }; // absolute reference
  };
};`
	r := NewRepository()
	if err := r.ParseString("scope.idl", src); err != nil {
		t.Fatal(err)
	}
	ui, _ := r.LookupType("outer::inner::UsesInner")
	if ui.Fields[0].Type.ScopedName() != "outer::inner::T" {
		t.Fatalf("inner resolution = %s", ui.Fields[0].Type.ScopedName())
	}
	uo, _ := r.LookupType("outer::inner::UsesOuter")
	if uo.Fields[0].Type.ScopedName() != "outer::T" {
		t.Fatalf("absolute resolution = %s", uo.Fields[0].Type.ScopedName())
	}
}

func TestInterfaceScopedDeclarations(t *testing.T) {
	src := `
module m {
  interface Svc {
    exception Boom { string why; };
    enum Mode { FAST, SAFE };
    void go(in Mode m) raises (Boom);
  };
  interface Other {
    void poke() raises (Svc::Boom);  // cross-interface scoped reference
  };
};`
	r := NewRepository()
	if err := r.ParseString("scoped.idl", src); err != nil {
		t.Fatal(err)
	}
	boom, ok := r.LookupType("m::Svc::Boom")
	if !ok {
		t.Fatal("interface-scoped exception not registered under the interface")
	}
	if boom.RepoID() != "IDL:m/Svc/Boom:1.0" {
		t.Fatalf("repo id = %q", boom.RepoID())
	}
	other, _ := r.LookupType("m::Other")
	op, ok := other.LookupOperation("poke")
	if !ok || len(op.Raises) != 1 || op.Raises[0] != boom {
		t.Fatalf("cross-interface raises resolution: %+v", op)
	}
}

func TestBoundedSequence(t *testing.T) {
	r := NewRepository()
	if err := r.ParseString("b.idl", `typedef sequence<long, 4> FourLongs;`); err != nil {
		t.Fatal(err)
	}
	tt, _ := r.LookupType("FourLongs")
	if tt.Resolve().Bound != 4 {
		t.Fatalf("bound = %d", tt.Resolve().Bound)
	}
}

func TestMultiFileAccumulation(t *testing.T) {
	r := NewRepository()
	if err := r.ParseString("a.idl", `module m { struct A { long x; }; };`); err != nil {
		t.Fatal(err)
	}
	if err := r.ParseString("b.idl", `module m { struct B { ::m::A a; }; };`); err != nil {
		t.Fatal(err)
	}
	b, ok := r.LookupType("m::B")
	if !ok || b.Fields[0].Type.ScopedName() != "m::A" {
		t.Fatalf("cross-file reference failed: %+v", b)
	}
}

func TestTypesDeclarationOrder(t *testing.T) {
	r := parseSample(t)
	types := r.Types()
	if len(types) < 8 {
		t.Fatalf("types = %d", len(types))
	}
	if types[0].ScopedName() != "corbalc::StringSeq" {
		t.Fatalf("first type = %s", types[0].ScopedName())
	}
	ifaces := 0
	for _, ty := range types {
		if ty.Kind == KindInterface {
			ifaces++
		}
	}
	if ifaces != 3 {
		t.Fatalf("interfaces = %d", ifaces)
	}
}

func TestIdempotentPragma(t *testing.T) {
	r := NewRepository()
	src := `
module cache {
  interface Store {
    readonly attribute long size;
    attribute string label;

    // idempotent
    string lookup(in string key);

    // a prose comment does not mark anything
    void put(in string key, in string value);

    // idempotent
    long count_matching(in string prefix);
  };
};
`
	if err := r.ParseString("cache.idl", src); err != nil {
		t.Fatal(err)
	}
	iface, ok := r.LookupType("cache::Store")
	if !ok {
		t.Fatal("cache::Store not found")
	}
	want := map[string]bool{
		"_get_size":      true,  // readonly attribute getter
		"_get_label":     false, // writable attribute getter may race _set_
		"_set_label":     false,
		"lookup":         true,
		"put":            false,
		"count_matching": true,
	}
	for _, op := range iface.AllOperations() {
		exp, known := want[op.Name]
		if !known {
			t.Fatalf("unexpected operation %s", op.Name)
		}
		if op.Idempotent != exp {
			t.Errorf("%s: Idempotent = %v, want %v", op.Name, op.Idempotent, exp)
		}
		delete(want, op.Name)
	}
	if len(want) != 0 {
		t.Fatalf("operations not seen: %v", want)
	}
}

func TestIdempotentPragmaDoesNotLeak(t *testing.T) {
	// The flag rides on exactly the next token: an intervening
	// declaration must not inherit it.
	r := NewRepository()
	src := `
interface I {
  // idempotent
  long a();
  long b();
};
`
	if err := r.ParseString("leak.idl", src); err != nil {
		t.Fatal(err)
	}
	iface, _ := r.LookupType("I")
	for _, op := range iface.AllOperations() {
		if op.Name == "a" && !op.Idempotent {
			t.Error("a should be idempotent")
		}
		if op.Name == "b" && op.Idempotent {
			t.Error("b must not inherit the pragma")
		}
	}
}

func TestIdempotentOnewayRejected(t *testing.T) {
	r := NewRepository()
	err := r.ParseString("bad.idl", `
interface I {
  // idempotent
  oneway void fire();
};
`)
	if err == nil || !strings.Contains(err.Error(), "idempotent") {
		t.Fatalf("err = %v, want idempotent-oneway rejection", err)
	}
}
