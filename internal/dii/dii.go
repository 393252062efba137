// Package dii implements CORBA's Dynamic Invocation Interface for
// CORBA-LC: calling any operation on any object knowing only its parsed
// IDL. It joins the interface repository (internal/idl) to the ORB's
// untyped invocation path, adding the typing a stub compiler would have
// generated — signature lookup, parameter direction handling, result and
// out-parameter decoding, and raises-clause-aware exception mapping.
//
// Tools (corbalc-admin, visual builders) use DII to drive component
// ports generically; the paper's §2.1.2 choice of "CORBA 2 standard,
// mature IDL" makes this possible without code generation.
package dii

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"corbalc/internal/cdr"
	"corbalc/internal/idl"
	"corbalc/internal/orb"
)

// Errors returned by DII calls.
var (
	ErrNoOperation = errors.New("dii: interface has no such operation")
	ErrArity       = errors.New("dii: wrong number of in-parameters")
)

// Exception is a typed user exception: the raises-clause entry that
// matched, with its members decoded per its IDL definition.
type Exception struct {
	Type    *idl.Type
	Members map[string]any
}

func (e *Exception) Error() string {
	return fmt.Sprintf("dii: user exception %s %v", e.Type.ScopedName(), e.Members)
}

// Object is a typed view of a CORBA object: an object reference plus the
// IDL interface it implements.
type Object struct {
	Ref   *orb.ObjectRef
	Iface *idl.Type

	// sigs memoizes resolved operation signatures behind an atomic
	// snapshot pointer: idl.Type.LookupOperation re-walks the whole
	// inheritance graph and rebuilds the operation list on every call,
	// which costs several allocations on the request hot path. Readers
	// load the snapshot lock-free; a miss clones the map, adds the
	// resolved signature and publishes the copy under sigMu (the
	// copy-on-write registry idiom from internal/orb). Only operations
	// that exist are memoized, so the map is bounded by the interface's
	// operation count.
	sigs  atomic.Pointer[map[string]*Signature]
	sigMu sync.Mutex
}

// Signature is one resolved operation signature: the operation and its
// in/inout parameters in declaration order (the arguments a caller must
// supply). Both are shared snapshots — callers must not mutate them.
type Signature struct {
	Op *idl.Operation
	In []idl.Param
}

// Signature resolves (and memoizes) an operation's signature by name,
// including inherited operations and implied attribute accessors.
func (o *Object) Signature(opName string) (*Signature, bool) {
	if m := o.sigs.Load(); m != nil {
		if s, ok := (*m)[opName]; ok {
			return s, true
		}
	}
	op, ok := o.Iface.LookupOperation(opName)
	if !ok {
		return nil, false
	}
	sig := &Signature{Op: op}
	for _, p := range op.Params {
		if p.Dir == idl.DirIn || p.Dir == idl.DirInOut {
			sig.In = append(sig.In, p)
		}
	}
	o.sigMu.Lock()
	defer o.sigMu.Unlock()
	var cur map[string]*Signature
	if m := o.sigs.Load(); m != nil {
		if s, ok := (*m)[opName]; ok {
			// Lost the publish race; keep the first snapshot's entry.
			return s, true
		}
		cur = *m
	}
	next := make(map[string]*Signature, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[opName] = sig
	o.sigs.Store(&next)
	return sig, true
}

// Bind builds a typed object from a reference and an interface type.
func Bind(ref *orb.ObjectRef, iface *idl.Type) (*Object, error) {
	iface = iface.Resolve()
	if iface.Kind != idl.KindInterface {
		return nil, fmt.Errorf("dii: %s is not an interface", iface)
	}
	return &Object{Ref: ref, Iface: iface}, nil
}

// BindByID builds a typed object looking the interface up in a
// repository by its repository ID (typically the reference's TypeID).
func BindByID(repo *idl.Repository, ref *orb.ObjectRef, repoID string) (*Object, error) {
	t, ok := repo.LookupByRepoID(repoID)
	if !ok {
		return nil, fmt.Errorf("dii: repository has no interface %s", repoID)
	}
	return Bind(ref, t)
}

// Result carries a call's outputs: the return value and the out/inout
// parameters by name.
type Result struct {
	Return any
	Out    map[string]any
}

// CallContext invokes an operation under ctx with the given in/inout
// arguments (in declaration order, skipping pure out parameters).
// Outputs are decoded per the signature. Attribute accessors use their
// implied names ("_get_x"/"_set_x").
func (o *Object) CallContext(ctx context.Context, opName string, args ...any) (*Result, error) {
	sig, ok := o.Signature(opName)
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoOperation, o.Iface.ScopedName(), opName)
	}
	op, inParams := sig.Op, sig.In
	if len(args) != len(inParams) {
		return nil, fmt.Errorf("%w: %s takes %d, got %d", ErrArity, opName, len(inParams), len(args))
	}

	// The Marshaller runs inside the ORB, which sends whatever it wrote,
	// so a value that does not fit its parameter type is caught by a
	// first pass into scratch. Alignment does not change whether Encode
	// fails, so the scratch offset need not match the request body's.
	scratch := cdr.GetEncoder(cdr.LittleEndian, 0)
	for i, p := range inParams {
		if err := idl.Encode(scratch, p.Type, args[i]); err != nil {
			scratch.Release()
			return nil, fmt.Errorf("dii: parameter %s: %w", p.Name, err)
		}
	}
	scratch.Release()
	// Encode in/inout parameters in declaration order; the pass above
	// proved every one encodes.
	marshal := func(e *cdr.Encoder) {
		for i, p := range inParams {
			_ = idl.Encode(e, p.Type, args[i])
		}
	}

	res := &Result{Out: make(map[string]any)}
	unmarshal := func(d *cdr.Decoder) error {
		// GIOP reply body order: return value, then out/inout params in
		// declaration order.
		if op.Result != nil && op.Result.Resolve().Kind != idl.KindVoid {
			v, err := idl.Decode(d, op.Result)
			if err != nil {
				return fmt.Errorf("return value: %w", err)
			}
			res.Return = v
		}
		for _, p := range op.Params {
			if p.Dir == idl.DirOut || p.Dir == idl.DirInOut {
				v, err := idl.Decode(d, p.Type)
				if err != nil {
					return fmt.Errorf("out parameter %s: %w", p.Name, err)
				}
				res.Out[p.Name] = v
			}
		}
		return nil
	}

	var err error
	if op.Oneway {
		err = o.Ref.InvokeOnewayContext(ctx, opName, marshal)
	} else {
		err = o.Ref.InvokeContext(ctx, opName, marshal, unmarshal)
	}
	if err != nil {
		return nil, o.mapException(op, err)
	}
	return res, nil
}

// mapException decodes a user exception against the operation's raises
// clause, so callers get typed members instead of a raw CDR stream.
func (o *Object) mapException(op *idl.Operation, err error) error {
	var ue *orb.UserException
	if !errors.As(err, &ue) || ue.Body == nil {
		return err
	}
	for _, exType := range op.Raises {
		exType = exType.Resolve()
		if exType.RepoID() != ue.ID {
			continue
		}
		members, derr := idl.Decode(ue.Body, exType)
		if derr != nil {
			return fmt.Errorf("dii: decoding exception %s: %v (original: %w)", ue.ID, derr, err)
		}
		m, _ := members.(map[string]any)
		return &Exception{Type: exType, Members: m}
	}
	return err
}
