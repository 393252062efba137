package idl

import (
	"fmt"
	"strings"
)

// Kind discriminates the type model.
type Kind int

// Type kinds.
const (
	KindVoid Kind = iota
	KindBoolean
	KindOctet
	KindChar
	KindShort
	KindUShort
	KindLong
	KindULong
	KindLongLong
	KindULongLong
	KindFloat
	KindDouble
	KindString
	KindAny
	KindObject // object reference
	KindSequence
	KindStruct
	KindEnum
	KindAlias // typedef
	KindInterface
	KindException
)

var kindNames = map[Kind]string{
	KindVoid: "void", KindBoolean: "boolean", KindOctet: "octet",
	KindChar: "char", KindShort: "short", KindUShort: "unsigned short",
	KindLong: "long", KindULong: "unsigned long", KindLongLong: "long long",
	KindULongLong: "unsigned long long", KindFloat: "float",
	KindDouble: "double", KindString: "string", KindAny: "any",
	KindObject: "Object", KindSequence: "sequence", KindStruct: "struct",
	KindEnum: "enum", KindAlias: "typedef", KindInterface: "interface",
	KindException: "exception",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Type describes one IDL type. Primitive types are shared singletons;
// constructed types carry their members.
type Type struct {
	Kind Kind
	// Name is the unqualified declared name of a constructed type.
	Name string
	// Scope is the enclosing module path, e.g. "corbalc::gui".
	Scope string
	// Elem is the element type of a sequence or the target of an alias.
	Elem *Type
	// Bound is the optional sequence bound (0 = unbounded).
	Bound uint32
	// Fields are struct or exception members, in declaration order.
	Fields []Field
	// Labels are the enumerator names of an enum, in value order.
	Labels []string
	// Iface carries interface-specific data.
	Iface *Interface
}

// Field is a struct/exception member or an operation parameter.
type Field struct {
	Name string
	Type *Type
}

// ScopedName returns the fully-qualified "A::B::C" name of a constructed
// type, or the kind name for primitives.
func (t *Type) ScopedName() string {
	if t.Name == "" {
		return t.Kind.String()
	}
	if t.Scope == "" {
		return t.Name
	}
	return t.Scope + "::" + t.Name
}

// RepoID returns the OMG repository ID ("IDL:A/B/C:1.0") of a constructed
// type.
func (t *Type) RepoID() string {
	return "IDL:" + strings.ReplaceAll(t.ScopedName(), "::", "/") + ":1.0"
}

// Resolve follows typedef chains to the underlying type.
func (t *Type) Resolve() *Type {
	for t.Kind == KindAlias {
		t = t.Elem
	}
	return t
}

func (t *Type) String() string {
	switch t.Kind {
	case KindSequence:
		if t.Bound > 0 {
			return fmt.Sprintf("sequence<%s, %d>", t.Elem, t.Bound)
		}
		return fmt.Sprintf("sequence<%s>", t.Elem)
	case KindStruct, KindEnum, KindInterface, KindException, KindAlias:
		return t.ScopedName()
	default:
		return t.Kind.String()
	}
}

// Shared primitive singletons.
var (
	TVoid      = &Type{Kind: KindVoid}
	TBoolean   = &Type{Kind: KindBoolean}
	TOctet     = &Type{Kind: KindOctet}
	TChar      = &Type{Kind: KindChar}
	TShort     = &Type{Kind: KindShort}
	TUShort    = &Type{Kind: KindUShort}
	TLong      = &Type{Kind: KindLong}
	TULong     = &Type{Kind: KindULong}
	TLongLong  = &Type{Kind: KindLongLong}
	TULongLong = &Type{Kind: KindULongLong}
	TFloat     = &Type{Kind: KindFloat}
	TDouble    = &Type{Kind: KindDouble}
	TString    = &Type{Kind: KindString}
	TAny       = &Type{Kind: KindAny}
	TObject    = &Type{Kind: KindObject}
)

// Sequence returns a new unbounded sequence type.
func Sequence(elem *Type) *Type { return &Type{Kind: KindSequence, Elem: elem} }

// ParamDir is a parameter passing direction.
type ParamDir int

// Parameter directions.
const (
	DirIn ParamDir = iota
	DirOut
	DirInOut
)

func (d ParamDir) String() string {
	switch d {
	case DirIn:
		return "in"
	case DirOut:
		return "out"
	case DirInOut:
		return "inout"
	}
	return fmt.Sprintf("ParamDir(%d)", int(d))
}

// Param is one operation parameter.
type Param struct {
	Dir  ParamDir
	Name string
	Type *Type
}

// Operation is one interface operation.
type Operation struct {
	Name   string
	Oneway bool
	// Idempotent marks an operation whose result depends only on its
	// arguments and whose invocation does not change component state,
	// so callers (the web gateway's response cache, in particular) may
	// reuse a prior reply. Declared with a `// idempotent` pragma
	// comment immediately before the operation; the implied _get_
	// accessor of a readonly attribute is idempotent automatically.
	Idempotent bool
	Result     *Type
	Params     []Param
	Raises     []*Type // exception types
}

// Attribute is one interface attribute; the repository models it as the
// implied _get_/_set_ operation pair.
type Attribute struct {
	Name     string
	Type     *Type
	ReadOnly bool
}

// Interface carries the interface-specific members of a Type.
type Interface struct {
	Bases      []*Type // inherited interfaces
	Operations []Operation
	Attributes []Attribute
}

// AllOperations returns the interface's operations including inherited
// ones and the implied attribute accessors, base-first.
func (t *Type) AllOperations() []Operation {
	if t.Kind != KindInterface || t.Iface == nil {
		return nil
	}
	var out []Operation
	seen := make(map[string]bool)
	var walk func(it *Type)
	walk = func(it *Type) {
		for _, b := range it.Iface.Bases {
			walk(b.Resolve())
		}
		for _, a := range it.Iface.Attributes {
			if !seen["_get_"+a.Name] {
				seen["_get_"+a.Name] = true
				// A readonly attribute cannot change, so its getter is
				// idempotent by construction; a writable attribute's
				// getter is not (a _set_ may race the cached value).
				out = append(out, Operation{Name: "_get_" + a.Name, Result: a.Type, Idempotent: a.ReadOnly})
			}
			if !a.ReadOnly && !seen["_set_"+a.Name] {
				seen["_set_"+a.Name] = true
				out = append(out, Operation{
					Name:   "_set_" + a.Name,
					Result: TVoid,
					Params: []Param{{Dir: DirIn, Name: "value", Type: a.Type}},
				})
			}
		}
		for _, op := range it.Iface.Operations {
			if !seen[op.Name] {
				seen[op.Name] = true
				out = append(out, op)
			}
		}
	}
	walk(t)
	return out
}

// LookupOperation finds an operation (or implied attribute accessor) by
// name, searching inherited interfaces.
func (t *Type) LookupOperation(name string) (*Operation, bool) {
	for _, op := range t.AllOperations() {
		if op.Name == name {
			opCopy := op
			return &opCopy, true
		}
	}
	return nil, false
}

// Const is a named constant declaration.
type Const struct {
	Name  string
	Scope string
	Type  *Type
	// Value holds int64 for integral consts or string for string consts.
	Value any
}

// ScopedName returns the constant's fully-qualified name.
func (c *Const) ScopedName() string {
	if c.Scope == "" {
		return c.Name
	}
	return c.Scope + "::" + c.Name
}
