package idl

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Repository is a runtime interface repository: every constructed type
// and constant parsed from IDL, indexed by scoped name and repository ID.
type Repository struct {
	types  map[string]*Type  // scoped name -> type
	byID   map[string]*Type  // repository ID -> type
	consts map[string]*Const // scoped name -> const
	order  []string          // declaration order of scoped names
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		types:  make(map[string]*Type),
		byID:   make(map[string]*Type),
		consts: make(map[string]*Const),
	}
}

// LookupType finds a constructed type by its fully-qualified name.
func (r *Repository) LookupType(scoped string) (*Type, bool) {
	t, ok := r.types[scoped]
	return t, ok
}

// LookupByRepoID finds a constructed type by its "IDL:...:1.0" ID.
func (r *Repository) LookupByRepoID(id string) (*Type, bool) {
	t, ok := r.byID[id]
	return t, ok
}

// Types returns all constructed types in declaration order.
func (r *Repository) Types() []*Type {
	out := make([]*Type, 0, len(r.order))
	for _, n := range r.order {
		if t, ok := r.types[n]; ok {
			out = append(out, t)
		}
	}
	return out
}

// ParseString parses IDL source into the repository. Multiple calls
// accumulate (like compiling several files against one repository).
func (r *Repository) ParseString(name, src string) error {
	p := &parser{repo: r, lex: newLexer(src), file: name}
	if err := p.advance(); err != nil {
		return err
	}
	for p.tok.kind != tokEOF {
		if err := p.definition(); err != nil {
			return err
		}
	}
	return p.checkForwardsDefined()
}

// ParseFile reads and parses one IDL file.
func (r *Repository) ParseFile(path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return r.ParseString(path, string(src))
}

func (r *Repository) register(t *Type) error {
	name := t.ScopedName()
	if old, ok := r.types[name]; ok {
		// Filling in a forward-declared interface is allowed.
		if old.Kind == KindInterface && old.Iface == nil && t.Kind == KindInterface {
			*old = *t
			return nil
		}
		return fmt.Errorf("idl: %s redeclared", name)
	}
	r.types[name] = t
	r.byID[t.RepoID()] = t
	r.order = append(r.order, name)
	return nil
}

// parser is a recursive-descent parser over the lexer.
type parser struct {
	repo  *Repository
	lex   *lexer
	file  string
	tok   token
	scope []string // module nesting
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("idl: %s:%d:%d: %s", p.file, p.tok.line, p.tok.col, fmt.Sprintf(format, args...))
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.tok.kind != kind || (text != "" && p.tok.text != text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", kind)
		}
		return token{}, p.errorf("expected %s, found %s", want, p.tok)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.tok.kind == kind && p.tok.text == text {
		if err := p.advance(); err != nil {
			return false
		}
		return true
	}
	return false
}

func (p *parser) scopeName() string { return strings.Join(p.scope, "::") }

// definition parses one top-level or module-level declaration.
func (p *parser) definition() error {
	if p.tok.kind != tokKeyword {
		return p.errorf("expected declaration, found %s", p.tok)
	}
	switch p.tok.text {
	case "module":
		return p.module()
	case "interface":
		return p.interfaceDecl()
	case "struct":
		_, err := p.structDecl(KindStruct)
		return err
	case "exception":
		_, err := p.structDecl(KindException)
		return err
	case "enum":
		return p.enumDecl()
	case "typedef":
		return p.typedefDecl()
	case "const":
		return p.constDecl()
	default:
		return p.errorf("unexpected keyword %q", p.tok.text)
	}
}

func (p *parser) module() error {
	if err := p.advance(); err != nil { // consume "module"
		return err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return err
	}
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return err
	}
	p.scope = append(p.scope, name.text)
	for !(p.tok.kind == tokPunct && p.tok.text == "}") {
		if p.tok.kind == tokEOF {
			return p.errorf("unterminated module %s", name.text)
		}
		if err := p.definition(); err != nil {
			return err
		}
	}
	p.scope = p.scope[:len(p.scope)-1]
	if _, err := p.expect(tokPunct, "}"); err != nil {
		return err
	}
	_, err = p.expect(tokPunct, ";")
	return err
}

func (p *parser) interfaceDecl() error {
	if err := p.advance(); err != nil { // consume "interface"
		return err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return err
	}
	// Forward declaration.
	if p.accept(tokPunct, ";") {
		scoped := name.text
		if s := p.scopeName(); s != "" {
			scoped = s + "::" + name.text
		}
		if _, exists := p.repo.types[scoped]; !exists {
			t := &Type{Kind: KindInterface, Name: name.text, Scope: p.scopeName()}
			if err := p.repo.register(t); err != nil {
				return err
			}
		}
		return nil
	}
	t := &Type{Kind: KindInterface, Name: name.text, Scope: p.scopeName(), Iface: &Interface{}}
	if p.accept(tokPunct, ":") {
		for {
			base, err := p.scopedTypeRef()
			if err != nil {
				return err
			}
			if base.Resolve().Kind != KindInterface {
				return p.errorf("interface %s inherits non-interface %s", name.text, base.ScopedName())
			}
			t.Iface.Bases = append(t.Iface.Bases, base)
			if !p.accept(tokPunct, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return err
	}
	// Declarations nested in an interface are scoped to it (IDL scoping
	// rules), so an exception declared here gets the repository ID
	// "IDL:Module/Interface/Name:1.0".
	p.scope = append(p.scope, name.text)
	for !(p.tok.kind == tokPunct && p.tok.text == "}") {
		if p.tok.kind == tokEOF {
			p.scope = p.scope[:len(p.scope)-1]
			return p.errorf("unterminated interface %s", name.text)
		}
		if err := p.export(t); err != nil {
			p.scope = p.scope[:len(p.scope)-1]
			return err
		}
	}
	p.scope = p.scope[:len(p.scope)-1]
	if _, err := p.expect(tokPunct, "}"); err != nil {
		return err
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return err
	}
	return p.repo.register(t)
}

// export parses one interface member.
func (p *parser) export(iface *Type) error {
	switch {
	case p.tok.kind == tokKeyword && (p.tok.text == "readonly" || p.tok.text == "attribute"):
		return p.attribute(iface)
	case p.tok.kind == tokKeyword && p.tok.text == "struct":
		_, err := p.structDecl(KindStruct)
		return err
	case p.tok.kind == tokKeyword && p.tok.text == "exception":
		_, err := p.structDecl(KindException)
		return err
	case p.tok.kind == tokKeyword && p.tok.text == "enum":
		return p.enumDecl()
	case p.tok.kind == tokKeyword && p.tok.text == "typedef":
		return p.typedefDecl()
	case p.tok.kind == tokKeyword && p.tok.text == "const":
		return p.constDecl()
	default:
		return p.operation(iface)
	}
}

func (p *parser) attribute(iface *Type) error {
	readonly := p.accept(tokKeyword, "readonly")
	if _, err := p.expect(tokKeyword, "attribute"); err != nil {
		return err
	}
	typ, err := p.typeSpec()
	if err != nil {
		return err
	}
	for {
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return err
		}
		iface.Iface.Attributes = append(iface.Iface.Attributes, Attribute{
			Name: name.text, Type: typ, ReadOnly: readonly,
		})
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	_, err = p.expect(tokPunct, ";")
	return err
}

func (p *parser) operation(iface *Type) error {
	// The `// idempotent` pragma rides on the declaration's first token
	// (the lexer pins it to the token following the comment).
	idempotent := p.tok.idem
	oneway := p.accept(tokKeyword, "oneway")
	var result *Type
	var err error
	if p.accept(tokKeyword, "void") {
		result = TVoid
	} else {
		result, err = p.typeSpec()
		if err != nil {
			return err
		}
	}
	if oneway && result != TVoid {
		return p.errorf("oneway operation must return void")
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return err
	}
	if oneway && idempotent {
		return p.errorf("oneway operation cannot be idempotent (it has no reply to cache)")
	}
	op := Operation{Name: name.text, Oneway: oneway, Idempotent: idempotent, Result: result}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return err
	}
	for !(p.tok.kind == tokPunct && p.tok.text == ")") {
		var dir ParamDir
		switch {
		case p.accept(tokKeyword, "in"):
			dir = DirIn
		case p.accept(tokKeyword, "out"):
			dir = DirOut
		case p.accept(tokKeyword, "inout"):
			dir = DirInOut
		default:
			return p.errorf("expected parameter direction, found %s", p.tok)
		}
		if oneway && dir != DirIn {
			return p.errorf("oneway operation %s has non-in parameter", name.text)
		}
		ptype, err := p.typeSpec()
		if err != nil {
			return err
		}
		pname, err := p.expect(tokIdent, "")
		if err != nil {
			return err
		}
		op.Params = append(op.Params, Param{Dir: dir, Name: pname.text, Type: ptype})
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return err
	}
	if p.accept(tokKeyword, "raises") {
		if _, err := p.expect(tokPunct, "("); err != nil {
			return err
		}
		for {
			ex, err := p.scopedTypeRef()
			if err != nil {
				return err
			}
			if ex.Resolve().Kind != KindException {
				return p.errorf("raises clause names non-exception %s", ex.ScopedName())
			}
			op.Raises = append(op.Raises, ex)
			if !p.accept(tokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return err
		}
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return err
	}
	iface.Iface.Operations = append(iface.Iface.Operations, op)
	return nil
}

func (p *parser) structDecl(kind Kind) (*Type, error) {
	if err := p.advance(); err != nil { // consume "struct"/"exception"
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	t := &Type{Kind: kind, Name: name.text, Scope: p.scopeName()}
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	for !(p.tok.kind == tokPunct && p.tok.text == "}") {
		if p.tok.kind == tokEOF {
			return nil, p.errorf("unterminated %v %s", kind, name.text)
		}
		ftype, err := p.typeSpec()
		if err != nil {
			return nil, err
		}
		for {
			fname, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			t.Fields = append(t.Fields, Field{Name: fname.text, Type: ftype})
			if !p.accept(tokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokPunct, "}"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	return t, p.repo.register(t)
}

func (p *parser) enumDecl() error {
	if err := p.advance(); err != nil { // consume "enum"
		return err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return err
	}
	t := &Type{Kind: KindEnum, Name: name.text, Scope: p.scopeName()}
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return err
	}
	for {
		lab, err := p.expect(tokIdent, "")
		if err != nil {
			return err
		}
		t.Labels = append(t.Labels, lab.text)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tokPunct, "}"); err != nil {
		return err
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return err
	}
	return p.repo.register(t)
}

func (p *parser) typedefDecl() error {
	if err := p.advance(); err != nil { // consume "typedef"
		return err
	}
	base, err := p.typeSpec()
	if err != nil {
		return err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return err
	}
	t := &Type{Kind: KindAlias, Name: name.text, Scope: p.scopeName(), Elem: base}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return err
	}
	return p.repo.register(t)
}

func (p *parser) constDecl() error {
	if err := p.advance(); err != nil { // consume "const"
		return err
	}
	typ, err := p.typeSpec()
	if err != nil {
		return err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return err
	}
	if _, err := p.expect(tokPunct, "="); err != nil {
		return err
	}
	c := &Const{Name: name.text, Scope: p.scopeName(), Type: typ}
	switch typ.Resolve().Kind {
	case KindShort, KindUShort, KindLong, KindULong, KindLongLong, KindULongLong, KindOctet:
		tk, err := p.expect(tokInt, "")
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(tk.text, 0, 64)
		if err != nil {
			return p.errorf("bad integer literal %q", tk.text)
		}
		c.Value = v
	case KindString:
		tk, err := p.expect(tokString, "")
		if err != nil {
			return err
		}
		c.Value = tk.text
	default:
		return p.errorf("unsupported const type %s", typ)
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return err
	}
	scoped := c.ScopedName()
	if _, dup := p.repo.consts[scoped]; dup {
		return p.errorf("const %s redeclared", scoped)
	}
	p.repo.consts[scoped] = c
	return nil
}

// typeSpec parses a type reference: a base type, a sequence, or a scoped
// name of a previously declared constructed type.
func (p *parser) typeSpec() (*Type, error) {
	if p.tok.kind == tokKeyword {
		switch p.tok.text {
		case "boolean":
			return TBoolean, p.advance()
		case "octet":
			return TOctet, p.advance()
		case "char":
			return TChar, p.advance()
		case "float":
			return TFloat, p.advance()
		case "double":
			return TDouble, p.advance()
		case "string":
			return TString, p.advance()
		case "any":
			return TAny, p.advance()
		case "Object":
			return TObject, p.advance()
		case "short":
			return TShort, p.advance()
		case "long":
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.accept(tokKeyword, "long") {
				return TLongLong, nil
			}
			return TLong, nil
		case "unsigned":
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.accept(tokKeyword, "short") {
				return TUShort, nil
			}
			if p.accept(tokKeyword, "long") {
				if p.accept(tokKeyword, "long") {
					return TULongLong, nil
				}
				return TULong, nil
			}
			return nil, p.errorf("expected short/long after unsigned")
		case "sequence":
			if err := p.advance(); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, "<"); err != nil {
				return nil, err
			}
			elem, err := p.typeSpec()
			if err != nil {
				return nil, err
			}
			seq := Sequence(elem)
			if p.accept(tokPunct, ",") {
				tk, err := p.expect(tokInt, "")
				if err != nil {
					return nil, err
				}
				b, err := strconv.ParseUint(tk.text, 0, 32)
				if err != nil {
					return nil, p.errorf("bad sequence bound %q", tk.text)
				}
				seq.Bound = uint32(b)
			}
			if _, err := p.expect(tokPunct, ">"); err != nil {
				return nil, err
			}
			return seq, nil
		}
		return nil, p.errorf("unexpected keyword %q in type", p.tok.text)
	}
	return p.scopedTypeRef()
}

// scopedTypeRef parses "A::B" / "::A::B" / "B" and resolves it against
// the current scope, searching enclosing scopes outward as IDL requires.
func (p *parser) scopedTypeRef() (*Type, error) {
	absolute := p.accept(tokPunct, "::")
	var parts []string
	for {
		id, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		parts = append(parts, id.text)
		if !p.accept(tokPunct, "::") {
			break
		}
	}
	rel := strings.Join(parts, "::")
	if absolute {
		if t, ok := p.repo.types[rel]; ok {
			return t, nil
		}
		return nil, p.errorf("undefined type ::%s", rel)
	}
	// Search current scope outward.
	for i := len(p.scope); i >= 0; i-- {
		prefix := strings.Join(p.scope[:i], "::")
		full := rel
		if prefix != "" {
			full = prefix + "::" + rel
		}
		if t, ok := p.repo.types[full]; ok {
			return t, nil
		}
	}
	return nil, p.errorf("undefined type %s", rel)
}

// checkForwardsDefined verifies every forward-declared interface was
// eventually defined.
func (p *parser) checkForwardsDefined() error {
	for name, t := range p.repo.types {
		if t.Kind == KindInterface && t.Iface == nil {
			return fmt.Errorf("idl: %s: interface %s forward-declared but never defined", p.file, name)
		}
	}
	return nil
}
