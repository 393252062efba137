package dii

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"corbalc/internal/cdr"
	"corbalc/internal/idl"
	"corbalc/internal/orb"
)

const calcIDL = `
module calc {
  exception DivideByZero { string detail; long numerator; };

  interface Calculator {
    readonly attribute long long call_count;
    attribute string label;

    long add(in long a, in long b);
    long divmod(in long a, in long b, out long remainder) raises (DivideByZero);
    void scale(inout double value, in double factor);
    string describe();
    oneway void reset();
  };
};
`

// calcServant implements the Calculator contract by hand (the server
// side would normally be another component; here we check the client
// side DII against a known wire behaviour).
type calcServant struct {
	calls atomic.Int64
	label atomic.Value
}

func (s *calcServant) RepositoryID() string { return "IDL:calc/Calculator:1.0" }

func (s *calcServant) InvokeContext(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	s.calls.Add(1)
	switch op {
	case "_get_call_count":
		reply.WriteLongLong(s.calls.Load())
		return nil
	case "_get_label":
		v, _ := s.label.Load().(string)
		reply.WriteString(v)
		return nil
	case "_set_label":
		v, err := args.ReadString()
		if err != nil {
			return err
		}
		s.label.Store(v)
		return nil
	case "add":
		a, err := args.ReadLong()
		if err != nil {
			return err
		}
		b, err := args.ReadLong()
		if err != nil {
			return err
		}
		reply.WriteLong(a + b)
		return nil
	case "divmod":
		a, err := args.ReadLong()
		if err != nil {
			return err
		}
		b, err := args.ReadLong()
		if err != nil {
			return err
		}
		if b == 0 {
			return &orb.UserException{
				ID: "IDL:calc/DivideByZero:1.0",
				Payload: func(e *cdr.Encoder) {
					e.WriteString("division by zero")
					e.WriteLong(a)
				},
			}
		}
		reply.WriteLong(a / b)
		reply.WriteLong(a % b) // out parameter after return value
		return nil
	case "scale":
		v, err := args.ReadDouble()
		if err != nil {
			return err
		}
		f, err := args.ReadDouble()
		if err != nil {
			return err
		}
		reply.WriteDouble(v * f) // inout comes back in the reply
		return nil
	case "describe":
		reply.WriteString("a calculator")
		return nil
	case "reset":
		s.calls.Store(0)
		return nil
	}
	return orb.BadOperation()
}

func bind(t *testing.T) (*Object, *calcServant) {
	t.Helper()
	repo := idl.NewRepository()
	if err := repo.ParseString("calc.idl", calcIDL); err != nil {
		t.Fatal(err)
	}
	o := orb.NewORB()
	sv := &calcServant{}
	ref := o.NewRef(o.Activate("calc", sv))
	obj, err := BindByID(repo, ref, "IDL:calc/Calculator:1.0")
	if err != nil {
		t.Fatal(err)
	}
	return obj, sv
}

func TestCallWithReturn(t *testing.T) {
	obj, _ := bind(t)
	res, err := obj.CallContext(context.Background(), "add", int32(20), int32(22))
	if err != nil {
		t.Fatal(err)
	}
	if res.Return != int32(42) {
		t.Fatalf("add = %v (%T)", res.Return, res.Return)
	}
	// Untyped Go ints are accepted and range-checked by the dynamic
	// marshaller.
	res, err = obj.CallContext(context.Background(), "add", 1, 2)
	if err != nil || res.Return != int32(3) {
		t.Fatalf("add ints = %v, %v", res.Return, err)
	}
}

func TestOutParameter(t *testing.T) {
	obj, _ := bind(t)
	res, err := obj.CallContext(context.Background(), "divmod", int32(17), int32(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Return != int32(3) || res.Out["remainder"] != int32(2) {
		t.Fatalf("divmod = %v rem %v", res.Return, res.Out["remainder"])
	}
}

func TestInOutParameter(t *testing.T) {
	obj, _ := bind(t)
	res, err := obj.CallContext(context.Background(), "scale", 2.5, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out["value"] != 10.0 {
		t.Fatalf("scale out = %v", res.Out)
	}
	if res.Return != nil {
		t.Fatalf("void op returned %v", res.Return)
	}
}

func TestTypedException(t *testing.T) {
	obj, _ := bind(t)
	_, err := obj.CallContext(context.Background(), "divmod", int32(9), int32(0))
	var ex *Exception
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v (%T)", err, err)
	}
	if ex.Type.ScopedName() != "calc::DivideByZero" {
		t.Fatalf("exception type = %s", ex.Type.ScopedName())
	}
	if ex.Members["detail"] != "division by zero" || ex.Members["numerator"] != int32(9) {
		t.Fatalf("members = %v", ex.Members)
	}
}

func TestAttributes(t *testing.T) {
	obj, _ := bind(t)
	// Attributes are the _get_/_set_ operations of their interface.
	if _, err := obj.CallContext(context.Background(), "_set_label", "mine"); err != nil {
		t.Fatal(err)
	}
	res, err := obj.CallContext(context.Background(), "_get_label")
	if err != nil || res.Return != "mine" {
		t.Fatalf("label = %v, %v", res, err)
	}
	// Readonly attribute has a getter but no setter.
	if _, err := obj.CallContext(context.Background(), "_get_call_count"); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.CallContext(context.Background(), "_set_call_count", int64(0)); !errors.Is(err, ErrNoOperation) {
		t.Fatalf("setting readonly attr: %v", err)
	}
}

func TestOneway(t *testing.T) {
	obj, sv := bind(t)
	if _, err := obj.CallContext(context.Background(), "add", 1, 1); err != nil {
		t.Fatal(err)
	}
	res, err := obj.CallContext(context.Background(), "reset")
	if err != nil || res.Return != nil {
		t.Fatalf("reset: %v, %v", res, err)
	}
	if sv.calls.Load() != 0 {
		t.Fatalf("calls after reset = %d", sv.calls.Load())
	}
}

func TestCallErrors(t *testing.T) {
	obj, _ := bind(t)
	if _, err := obj.CallContext(context.Background(), "no_such_op"); !errors.Is(err, ErrNoOperation) {
		t.Fatalf("unknown op: %v", err)
	}
	if _, err := obj.CallContext(context.Background(), "add", 1); !errors.Is(err, ErrArity) {
		t.Fatalf("arity: %v", err)
	}
	if _, err := obj.CallContext(context.Background(), "add", "one", "two"); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

// TestMarshalFailureSendsNothing: an argument that does not fit its
// parameter type fails the call before any request leaves, so the
// servant never runs on the truncated body the failed encode left.
func TestMarshalFailureSendsNothing(t *testing.T) {
	obj, sv := bind(t)
	if _, err := obj.CallContext(context.Background(), "add", int32(1), "x"); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if n := sv.calls.Load(); n != 0 {
		t.Fatalf("servant ran %d time(s) on a request that failed to marshal", n)
	}
}

func TestBindErrors(t *testing.T) {
	repo := idl.NewRepository()
	if err := repo.ParseString("x.idl", `struct S { long x; };`); err != nil {
		t.Fatal(err)
	}
	o := orb.NewORB()
	ref := o.NewRef(o.NewIOR("IDL:S:1.0", "k"))
	if _, err := BindByID(repo, ref, "IDL:nothing:1.0"); err == nil {
		t.Fatal("unknown repo id accepted")
	}
	st, _ := repo.LookupType("S")
	if _, err := Bind(ref, st); err == nil {
		t.Fatal("non-interface accepted")
	}
}

func TestSignatureMemoized(t *testing.T) {
	obj, _ := bind(t)
	s1, ok := obj.Signature("divmod")
	if !ok {
		t.Fatal("divmod not found")
	}
	if len(s1.In) != 2 || s1.Op.Name != "divmod" {
		t.Fatalf("signature = %+v", s1)
	}
	s2, _ := obj.Signature("divmod")
	if s1 != s2 {
		t.Error("second lookup did not return the memoized signature")
	}
	if _, ok := obj.Signature("no_such_op"); ok {
		t.Error("unknown operation resolved")
	}
	// Misses are not memoized (the map stays bounded by the interface).
	if m := obj.sigs.Load(); m != nil {
		if _, leaked := (*m)["no_such_op"]; leaked {
			t.Error("negative lookup was memoized")
		}
	}
}

// TestSignatureLookupAllocs is the satellite regression gate: once an
// operation's signature is memoized, resolving it again must not touch
// the heap — the pre-memoization path re-ran LookupOperation (a full
// inheritance walk plus a fresh operations slice) on every call.
func TestSignatureLookupAllocs(t *testing.T) {
	obj, _ := bind(t)
	for _, op := range []string{"add", "divmod", "_get_call_count"} {
		if _, ok := obj.Signature(op); !ok {
			t.Fatalf("%s not found", op)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, op := range []string{"add", "divmod", "_get_call_count"} {
			if _, ok := obj.Signature(op); !ok {
				t.Fatal("memoized signature vanished")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("memoized Signature lookups allocate %.1f per run, want 0", allocs)
	}
}

func TestSignatureConcurrentPublish(t *testing.T) {
	obj, _ := bind(t)
	ops := []string{"add", "divmod", "scale", "describe", "_get_label", "_set_label", "_get_call_count", "reset"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				op := ops[(g+i)%len(ops)]
				if _, ok := obj.Signature(op); !ok {
					t.Errorf("%s not found", op)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if m := obj.sigs.Load(); m == nil || len(*m) != len(ops) {
		t.Fatalf("snapshot has %d entries, want %d", len(*obj.sigs.Load()), len(ops))
	}
}
