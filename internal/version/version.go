// Package version implements the dotted component versions used by
// CORBA-LC dependency management ("new components or new versions of
// existing components", paper §2.4.2): parsing, total ordering, and
// requirement matching ("1.2", ">=1.2", "1.*").
package version

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// V is a three-part component version.
type V struct {
	Major, Minor, Patch int
}

// ErrSyntax reports an unparseable version or requirement string.
var ErrSyntax = errors.New("version: syntax error")

// Parse parses "1", "1.2" or "1.2.3".
func Parse(s string) (V, error) {
	var v V
	if s == "" {
		return v, fmt.Errorf("%w: empty version", ErrSyntax)
	}
	parts := strings.Split(s, ".")
	if len(parts) > 3 {
		return v, fmt.Errorf("%w: %q has more than three parts", ErrSyntax, s)
	}
	nums := [3]int{}
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return v, fmt.Errorf("%w: %q", ErrSyntax, s)
		}
		nums[i] = n
	}
	return V{nums[0], nums[1], nums[2]}, nil
}

func (v V) String() string {
	return fmt.Sprintf("%d.%d.%d", v.Major, v.Minor, v.Patch)
}

// Compare returns -1, 0 or +1 ordering v against o.
func (v V) Compare(o V) int {
	switch {
	case v.Major != o.Major:
		return sign(v.Major - o.Major)
	case v.Minor != o.Minor:
		return sign(v.Minor - o.Minor)
	case v.Patch != o.Patch:
		return sign(v.Patch - o.Patch)
	}
	return 0
}

// Less reports v < o.
func (v V) Less(o V) bool { return v.Compare(o) < 0 }

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

// Requirement is a parsed version constraint.
type Requirement struct {
	op   string // "", ">=", ">", "<=", "<", "=", "~" (wildcard)
	v    V
	wild int // for "1.*": number of significant parts (1 or 2)
}

// ParseRequirement parses a constraint: "" or "*" (any), "1.2.3" /
// "=1.2.3" (exact), ">=1.2", ">1.2", "<=2.0", "<2.0", or a wildcard
// "1.*" / "1.2.*" (same prefix).
func ParseRequirement(s string) (Requirement, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "*" {
		return Requirement{op: "*"}, nil
	}
	for _, op := range []string{">=", "<=", ">", "<", "="} {
		if strings.HasPrefix(s, op) {
			v, err := Parse(strings.TrimSpace(s[len(op):]))
			if err != nil {
				return Requirement{}, err
			}
			return Requirement{op: op, v: v}, nil
		}
	}
	if strings.HasSuffix(s, ".*") {
		prefix := strings.TrimSuffix(s, ".*")
		parts := strings.Split(prefix, ".")
		if len(parts) > 2 {
			return Requirement{}, fmt.Errorf("%w: wildcard %q too deep", ErrSyntax, s)
		}
		v, err := Parse(prefix)
		if err != nil {
			return Requirement{}, err
		}
		return Requirement{op: "~", v: v, wild: len(parts)}, nil
	}
	v, err := Parse(s)
	if err != nil {
		return Requirement{}, err
	}
	return Requirement{op: "=", v: v}, nil
}

// Matches reports whether version v satisfies the requirement.
func (r Requirement) Matches(v V) bool {
	switch r.op {
	case "*", "":
		return true
	case "=":
		return v.Compare(r.v) == 0
	case ">=":
		return v.Compare(r.v) >= 0
	case ">":
		return v.Compare(r.v) > 0
	case "<=":
		return v.Compare(r.v) <= 0
	case "<":
		return v.Compare(r.v) < 0
	case "~":
		if v.Major != r.v.Major {
			return false
		}
		if r.wild >= 2 && v.Minor != r.v.Minor {
			return false
		}
		return true
	}
	return false
}

func (r Requirement) String() string {
	switch r.op {
	case "*", "":
		return "*"
	case "~":
		if r.wild == 1 {
			return fmt.Sprintf("%d.*", r.v.Major)
		}
		return fmt.Sprintf("%d.%d.*", r.v.Major, r.v.Minor)
	case "=":
		return r.v.String()
	default:
		return r.op + r.v.String()
	}
}
