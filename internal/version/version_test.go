package version

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestParse(t *testing.T) {
	cases := map[string]V{
		"1":      {1, 0, 0},
		"1.2":    {1, 2, 0},
		"1.2.3":  {1, 2, 3},
		"0.0.0":  {0, 0, 0},
		"10.0.9": {10, 0, 9},
	}
	for s, want := range cases {
		got, err := Parse(s)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v", s, got, err)
		}
	}
	for _, bad := range []string{"", "a", "1.a", "1.2.3.4", "-1", "1.-2", "1..2"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestCompare(t *testing.T) {
	order := []string{"0.9.9", "1.0.0", "1.0.1", "1.1.0", "2.0.0", "10.0.0"}
	for i := range order {
		for j := range order {
			vi, vj := mustParse(order[i]), mustParse(order[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := vi.Compare(vj); got != want {
				t.Errorf("%s.Compare(%s) = %d, want %d", vi, vj, got, want)
			}
			if (vi.Less(vj)) != (want < 0) {
				t.Errorf("%s.Less(%s) wrong", vi, vj)
			}
		}
	}
}

func TestRequirements(t *testing.T) {
	cases := []struct {
		req string
		yes []string
		no  []string
	}{
		{"*", []string{"0.0.0", "9.9.9"}, nil},
		{"", []string{"1.0.0"}, nil},
		{"1.2.3", []string{"1.2.3"}, []string{"1.2.4", "1.2.0"}},
		{"=1.2", []string{"1.2.0"}, []string{"1.2.1"}},
		{">=1.2", []string{"1.2.0", "1.3.0", "2.0.0"}, []string{"1.1.9", "0.9.0"}},
		{">1.2", []string{"1.2.1", "2.0.0"}, []string{"1.2.0"}},
		{"<=2", []string{"2.0.0", "1.9.9"}, []string{"2.0.1"}},
		{"<2", []string{"1.9.9"}, []string{"2.0.0"}},
		{"1.*", []string{"1.0.0", "1.9.3"}, []string{"2.0.0", "0.9.0"}},
		{"1.2.*", []string{"1.2.0", "1.2.9"}, []string{"1.3.0", "2.2.0"}},
	}
	for _, tc := range cases {
		r, err := ParseRequirement(tc.req)
		if err != nil {
			t.Fatalf("ParseRequirement(%q): %v", tc.req, err)
		}
		for _, y := range tc.yes {
			if !r.Matches(mustParse(y)) {
				t.Errorf("%q should match %s", tc.req, y)
			}
		}
		for _, n := range tc.no {
			if r.Matches(mustParse(n)) {
				t.Errorf("%q should not match %s", tc.req, n)
			}
		}
	}
	for _, bad := range []string{">=x", "1.2.3.*", "~~1"} {
		if _, err := ParseRequirement(bad); err == nil {
			t.Errorf("ParseRequirement(%q) accepted", bad)
		}
	}
}

func TestRequirementString(t *testing.T) {
	for _, s := range []string{"*", "1.2.3", ">=1.2.0", "1.*", "1.2.*", "<2.0.0"} {
		r, err := ParseRequirement(s)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ParseRequirement(r.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", r.String(), err)
		}
		for _, probe := range []string{"0.1.0", "1.0.0", "1.2.0", "1.2.3", "1.9.0", "2.0.0", "3.1.4"} {
			v := mustParse(probe)
			if r.Matches(v) != r2.Matches(v) {
				t.Errorf("%q round-trip differs on %s", s, probe)
			}
		}
	}
}

func TestBest(t *testing.T) {
	vs := []V{mustParse("1.0.0"), mustParse("1.5.0"), mustParse("2.0.0"), mustParse("1.4.9")}
	r, _ := ParseRequirement("1.*")
	if got := r.Best(vs); got != 1 {
		t.Fatalf("Best = %d", got)
	}
	r, _ = ParseRequirement(">=3")
	if got := r.Best(vs); got != -1 {
		t.Fatalf("Best(no match) = %d", got)
	}
	r, _ = ParseRequirement("*")
	if got := r.Best(vs); got != 2 {
		t.Fatalf("Best(any) = %d", got)
	}
	if got := r.Best(nil); got != -1 {
		t.Fatalf("Best(empty) = %d", got)
	}
}

// Property: Compare is a total order consistent with sorting, and
// String/Parse round-trips.
func TestQuickOrderAndRoundTrip(t *testing.T) {
	f := func(a, b, c uint8) bool {
		v := V{int(a), int(b), int(c)}
		got, err := Parse(v.String())
		if err != nil || got != v {
			return false
		}
		return v.Compare(v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(raw []uint8) bool {
		if len(raw) < 3 {
			return true
		}
		var vs []V
		for i := 0; i+2 < len(raw); i += 3 {
			vs = append(vs, V{int(raw[i]), int(raw[i+1]), int(raw[i+2])})
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i].Less(vs[j]) })
		for i := 1; i < len(vs); i++ {
			if vs[i].Less(vs[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// mustParse parses a version literal, panicking on a typo in the test.
func mustParse(s string) V {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}
