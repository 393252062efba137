package orb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/giop"
	"corbalc/internal/ior"
)

// echoServant implements a small test interface with several operations.
// servantFunc adapts a function (plus repository ID) to the Servant
// interface, for small single-purpose test objects.
type servantFunc struct {
	RepoID string
	Fn     func(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error
}

func (s servantFunc) RepositoryID() string { return s.RepoID }

func (s servantFunc) InvokeContext(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	return s.Fn(ctx, op, args, reply)
}

type echoServant struct{}

func (echoServant) RepositoryID() string { return "IDL:corbalc/test/Echo:1.0" }

func (echoServant) InvokeContext(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	switch op {
	case "echo_string":
		s, err := args.ReadString()
		if err != nil {
			return err
		}
		reply.WriteString(s)
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
	case "mixed":
		// Exercises alignment of the spliced reply body: double first.
		reply.WriteDouble(3.5)
		reply.WriteOctet(7)
		reply.WriteULong(99)
		return nil
	case "fail_user":
		return &UserException{ID: "IDL:corbalc/test/Boom:1.0", Payload: func(e *cdr.Encoder) {
			e.WriteString("details")
			e.WriteLong(42)
		}}
	case "fail_system":
		return Transient()
	case "fail_plain":
		return errors.New("some internal error")
	case "panics":
		panic("servant bug")
	case "oneway_ping":
		return nil
	}
	return BadOperation()
}

func newLocalPair(t *testing.T, opts ...Option) (*ORB, *ObjectRef) {
	t.Helper()
	o := NewORB(opts...)
	ref := o.NewRef(o.Activate("test/echo", echoServant{}))
	return o, ref
}

func TestLocalInvoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"v12-le", []Option{WithGIOPVersion(giop.V12), WithByteOrder(cdr.LittleEndian)}},
		{"v12-be", []Option{WithGIOPVersion(giop.V12), WithByteOrder(cdr.BigEndian)}},
		{"v10-le", []Option{WithGIOPVersion(giop.V10), WithByteOrder(cdr.LittleEndian)}},
		{"v10-be", []Option{WithGIOPVersion(giop.V10), WithByteOrder(cdr.BigEndian)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ref := newLocalPair(t, tc.opts...)
			var got string
			err := ref.InvokeContext(context.Background(), "echo_string",
				func(e *cdr.Encoder) { e.WriteString("hola") },
				func(d *cdr.Decoder) error {
					var err error
					got, err = d.ReadString()
					return err
				})
			if err != nil {
				t.Fatal(err)
			}
			if got != "hola" {
				t.Fatalf("echo = %q", got)
			}
			var sum int32
			err = ref.InvokeContext(context.Background(), "add",
				func(e *cdr.Encoder) { e.WriteLong(20); e.WriteLong(22) },
				func(d *cdr.Decoder) error {
					var err error
					sum, err = d.ReadLong()
					return err
				})
			if err != nil || sum != 42 {
				t.Fatalf("add = %d, %v", sum, err)
			}
		})
	}
}

func TestReplyBodySpliceAlignment(t *testing.T) {
	for _, v := range []giop.Version{giop.V10, giop.V12} {
		_, ref := newLocalPair(t, WithGIOPVersion(v))
		var d8 float64
		var oct byte
		var ul uint32
		err := ref.InvokeContext(context.Background(), "mixed", nil, func(d *cdr.Decoder) error {
			var err error
			if d8, err = d.ReadDouble(); err != nil {
				return err
			}
			if oct, err = d.ReadOctet(); err != nil {
				return err
			}
			ul, err = d.ReadULong()
			return err
		})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if d8 != 3.5 || oct != 7 || ul != 99 {
			t.Fatalf("%v: got %v %d %d", v, d8, oct, ul)
		}
	}
}

func TestUserException(t *testing.T) {
	_, ref := newLocalPair(t)
	err := ref.InvokeContext(context.Background(), "fail_user", nil, nil)
	var ue *UserException
	if !errors.As(err, &ue) || ue.ID != "IDL:corbalc/test/Boom:1.0" {
		t.Fatalf("err = %v", err)
	}
	s, err2 := ue.Body.ReadString()
	if err2 != nil || s != "details" {
		t.Fatalf("payload string = %q, %v", s, err2)
	}
	n, err2 := ue.Body.ReadLong()
	if err2 != nil || n != 42 {
		t.Fatalf("payload long = %d, %v", n, err2)
	}
}

func TestSystemExceptionPropagation(t *testing.T) {
	_, ref := newLocalPair(t)
	err := ref.InvokeContext(context.Background(), "fail_system", nil, nil)
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "TRANSIENT" {
		t.Fatalf("err = %v", err)
	}
	// A plain error maps to UNKNOWN.
	err = ref.InvokeContext(context.Background(), "fail_plain", nil, nil)
	if !errors.As(err, &se) || se.Name != "UNKNOWN" {
		t.Fatalf("plain error -> %v", err)
	}
	// A panic maps to UNKNOWN, not a crash.
	err = ref.InvokeContext(context.Background(), "panics", nil, nil)
	if !errors.As(err, &se) || se.Name != "UNKNOWN" {
		t.Fatalf("panic -> %v", err)
	}
	// An unknown operation maps to BAD_OPERATION.
	err = ref.InvokeContext(context.Background(), "no_such_op", nil, nil)
	if !errors.As(err, &se) || se.Name != "BAD_OPERATION" {
		t.Fatalf("bad op -> %v", err)
	}
}

func TestObjectNotExist(t *testing.T) {
	o := NewORB()
	ref := o.NewRef(o.NewIOR("IDL:whatever:1.0", "absent/key"))
	err := ref.InvokeContext(context.Background(), "anything", nil, nil)
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "OBJECT_NOT_EXIST" {
		t.Fatalf("err = %v", err)
	}
	// Deactivation makes a live object unreachable.
	o2, ref2 := newLocalPair(t)
	o2.Adapter().Deactivate("test/echo")
	err = ref2.InvokeContext(context.Background(), "echo_string", func(e *cdr.Encoder) { e.WriteString("x") }, nil)
	if !errors.As(err, &se) || se.Name != "OBJECT_NOT_EXIST" {
		t.Fatalf("after deactivate: %v", err)
	}
}

func TestNilReferenceInvoke(t *testing.T) {
	o := NewORB()
	ref := o.NewRef(&ior.IOR{})
	err := ref.InvokeContext(context.Background(), "op", nil, nil)
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "OBJECT_NOT_EXIST" {
		t.Fatalf("err = %v", err)
	}
}

func TestOneway(t *testing.T) {
	o, ref := newLocalPair(t)
	if err := ref.InvokeOnewayContext(context.Background(), "oneway_ping", nil); err != nil {
		t.Fatal(err)
	}
	if o.RequestsServed() != 1 {
		t.Fatalf("served = %d", o.RequestsServed())
	}
}

func TestLocateRequestHandling(t *testing.T) {
	o, _ := newLocalPair(t)
	for _, tc := range []struct {
		key  string
		want giop.LocateStatus
	}{
		{"test/echo", giop.LocateObjectHere},
		{"missing", giop.LocateUnknownObject},
	} {
		e := giop.NewBodyEncoder(cdr.BigEndian)
		e.WriteULong(9) // request ID
		e.WriteShort(0) // KeyAddr target address
		e.WriteOctetSeq([]byte(tc.key))
		reply, err := o.HandleMessage(context.Background(), &giop.Message{
			Header: giop.Header{Version: giop.V12, Order: cdr.BigEndian, Type: giop.MsgLocateRequest},
			Body:   e.Bytes(),
		})
		if err != nil {
			t.Fatal(err)
		}
		d := reply.BodyDecoder()
		id, _ := d.ReadULong()
		status, err := d.ReadULong()
		if err != nil || id != 9 {
			t.Fatalf("locate reply %d, %v", id, err)
		}
		if giop.LocateStatus(status) != tc.want {
			t.Errorf("locate %q = %v, want %v", tc.key, giop.LocateStatus(status), tc.want)
		}
	}
}

func TestUnknownMessageTypeGetsMessageError(t *testing.T) {
	o := NewORB()
	reply, err := o.HandleMessage(context.Background(), &giop.Message{
		Header: giop.Header{Version: giop.V12, Order: cdr.BigEndian, Type: MsgTypeBogus},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Header.Type != giop.MsgMessageError {
		t.Fatalf("reply type = %v", reply.Header.Type)
	}
}

// MsgTypeBogus is an out-of-range GIOP message type for testing.
const MsgTypeBogus giop.MsgType = 42

// memTransport loops GIOP messages back into a target ORB, simulating a
// remote peer without sockets. It also counts dials to verify channel
// caching.
type memTransport struct {
	target *ORB
	mu     sync.Mutex
	dials  int
	broken bool // when set, calls fail once then heal
}

const memTag uint32 = 0x7E577E57

func (mt *memTransport) Tag() uint32 { return memTag }

func (mt *memTransport) Endpoint(profile []byte) (string, error) { return string(profile), nil }

func (mt *memTransport) Dial(_ context.Context, profile []byte) (Channel, error) {
	mt.mu.Lock()
	mt.dials++
	mt.mu.Unlock()
	return &memChannel{mt: mt}, nil
}

type memChannel struct{ mt *memTransport }

func (c *memChannel) Call(ctx context.Context, req *giop.Message, id uint32) (*giop.Message, error) {
	c.mt.mu.Lock()
	if c.mt.broken {
		c.mt.broken = false
		c.mt.mu.Unlock()
		return nil, errors.New("connection reset")
	}
	c.mt.mu.Unlock()
	return c.mt.target.HandleMessage(ctx, req)
}

func (c *memChannel) Send(ctx context.Context, req *giop.Message) error {
	_, err := c.mt.target.HandleMessage(ctx, req)
	return err
}

func (c *memChannel) Close() error { return nil }

func remoteRef(server *ORB, key string) *ior.IOR {
	// The mem transport addresses objects by the key carried in the
	// request, which requires an IIOP-style key; encode one, first.
	p := (&ior.IIOPProfile{Major: 1, Minor: 2, Host: "mem", Port: 1, ObjectKey: []byte(key)}).Encode()
	r := &ior.IOR{TypeID: "IDL:corbalc/test/Echo:1.0"}
	r.AddProfile(p.Tag, p.Data)
	r.AddProfile(memTag, []byte("server-endpoint"))
	return r
}

func TestRemoteInvokeViaTransport(t *testing.T) {
	server := NewORB()
	server.Activate("test/echo", echoServant{})
	client := NewORB()
	mt := &memTransport{target: server}
	client.RegisterTransport(mt)

	// No IIOP transport registered on the client, so the IIOP profile is
	// skipped and the mem profile carries the call.
	ref := client.NewRef(remoteRef(server, "test/echo"))
	var got string
	err := ref.InvokeContext(context.Background(), "echo_string",
		func(e *cdr.Encoder) { e.WriteString("remote") },
		func(d *cdr.Decoder) error {
			var err error
			got, err = d.ReadString()
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if got != "remote" {
		t.Fatalf("echo = %q", got)
	}
	if sentErrs, _ := client.Stats().Errors(); server.RequestsServed() != 1 || sentErrs != 0 {
		t.Fatalf("served=%d sent errors=%d", server.RequestsServed(), sentErrs)
	}

	// Channel caching: 10 more calls, still one dial.
	for i := 0; i < 10; i++ {
		if err := ref.InvokeContext(context.Background(), "add",
			func(e *cdr.Encoder) { e.WriteLong(int32(i)); e.WriteLong(1) }, func(d *cdr.Decoder) error {
				_, err := d.ReadLong()
				return err
			}); err != nil {
			t.Fatal(err)
		}
	}
	if mt.dials != 1 {
		t.Fatalf("dials = %d, want 1", mt.dials)
	}

	// A failed call drops the cached channel; the next call re-dials.
	mt.broken = true
	err = ref.InvokeContext(context.Background(), "add", func(e *cdr.Encoder) { e.WriteLong(1); e.WriteLong(1) }, nil)
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "COMM_FAILURE" {
		t.Fatalf("broken call err = %v", err)
	}
	if sentErrs, _ := client.Stats().Errors(); sentErrs != 1 {
		t.Fatalf("sent errors = %d after the broken call, want 1", sentErrs)
	}
	if err := ref.InvokeContext(context.Background(), "add", func(e *cdr.Encoder) { e.WriteLong(1); e.WriteLong(1) }, func(d *cdr.Decoder) error {
		_, err := d.ReadLong()
		return err
	}); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
	if mt.dials != 2 {
		t.Fatalf("dials = %d, want 2", mt.dials)
	}
}

func TestNoTransportForProfile(t *testing.T) {
	client := NewORB()
	r := &ior.IOR{TypeID: "IDL:x:1.0"}
	r.AddProfile(0xAAAA, []byte("nowhere"))
	err := client.NewRef(r).InvokeContext(context.Background(), "op", nil, nil)
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "NO_IMPLEMENT" {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentLocalInvokes(t *testing.T) {
	_, ref := newLocalPair(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				want := fmt.Sprintf("g%d-i%d", g, i)
				var got string
				err := ref.InvokeContext(context.Background(), "echo_string",
					func(e *cdr.Encoder) { e.WriteString(want) },
					func(d *cdr.Decoder) error {
						var err error
						got, err = d.ReadString()
						return err
					})
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("got %q want %q", got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServantFunc(t *testing.T) {
	o := NewORB()
	ref := o.NewRef(o.Activate("fn", servantFunc{
		RepoID: "IDL:corbalc/test/Fn:1.0",
		Fn: func(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
			reply.WriteString(op)
			return nil
		},
	}))
	if ref.ior.TypeID != "IDL:corbalc/test/Fn:1.0" {
		t.Fatalf("type id = %q", ref.ior.TypeID)
	}
	var got string
	if err := ref.InvokeContext(context.Background(), "whoami", nil, func(d *cdr.Decoder) error {
		var err error
		got, err = d.ReadString()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != "whoami" {
		t.Fatalf("got %q", got)
	}
}

func BenchmarkLocalNullInvoke(b *testing.B) {
	o := NewORB()
	ref := o.NewRef(o.Activate("test/echo", echoServant{}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ref.InvokeContext(context.Background(), "oneway_ping", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalEchoString(b *testing.B) {
	o := NewORB()
	ref := o.NewRef(o.Activate("test/echo", echoServant{}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := ref.InvokeContext(context.Background(), "echo_string",
			func(e *cdr.Encoder) { e.WriteString("benchmark payload string") },
			func(d *cdr.Decoder) error { _, err := d.ReadString(); return err })
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestORBMiscAccessors(t *testing.T) {
	o := NewORB()
	if o.id == "" {
		t.Fatal("empty ORB id")
	}
	o2 := NewORB()
	if o.id == o2.id {
		t.Fatal("ORB ids collide within a process")
	}
	o.SetEndpoint("example", 2809)
	h, p := o.Endpoint()
	if h != "example" || p != 2809 {
		t.Fatalf("endpoint = %s:%d", h, p)
	}
	// Endpoint-bearing IORs now carry an IIOP profile.
	r := o.NewIOR("IDL:x:1.0", "k")
	prof, err := ior.DecodeIIOPProfile(r.Profile(ior.TagInternetIOP))
	if err != nil || prof.Host != "example" {
		t.Fatalf("iiop profile = %+v, %v", prof, err)
	}
	// Decorators fire on minting.
	o.AddIORDecorator(func(ref *ior.IOR, key string) {
		ref.AddProfile(0xBEEF, []byte(key))
	})
	r2 := o.NewIOR("IDL:x:1.0", "deckey")
	if string(r2.Profile(0xBEEF)) != "deckey" {
		t.Fatal("decorator did not run")
	}
	// Adapter introspection.
	o.Activate("a", echoServant{})
	o.Activate("b", echoServant{})
	if keys := o.Adapter().Keys(); len(keys) != 2 {
		t.Fatalf("adapter keys=%v", keys)
	}
	// ResolveStr round trip.
	ref, err := o.ResolveStr(r.String())
	if err != nil || ref.IOR().TypeID != "IDL:x:1.0" {
		t.Fatalf("resolve: %v, %v", ref, err)
	}
	if _, err := o.ResolveStr("garbage"); err == nil {
		t.Fatal("garbage resolved")
	}
	o.Shutdown() // no cached channels: must not panic
}

func TestExceptionStringsAndHelpers(t *testing.T) {
	for _, tc := range []struct {
		se   *SystemException
		want string
	}{
		{Timeout(), "CORBA::TIMEOUT (minor=0, COMPLETED_MAYBE)"},
		{ObjectNotExist(), "CORBA::OBJECT_NOT_EXIST (minor=0, COMPLETED_NO)"},
	} {
		if tc.se.Error() != tc.want {
			t.Errorf("error string = %q, want %q", tc.se.Error(), tc.want)
		}
	}
	if CompletedYes.String() != "COMPLETED_YES" || CompletionStatus(9).String() == "" {
		t.Error("completion strings")
	}
	ue := &UserException{ID: "IDL:x/Bad:1.0"}
	if ue.Error() != "user exception IDL:x/Bad:1.0" {
		t.Errorf("user exception string = %q", ue.Error())
	}
}

func TestSystemExceptionWireRoundTrip(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	marshalSystemException(e, &SystemException{Name: "TRANSIENT", Minor: 7, Completed: CompletedMaybe})
	se, err := unmarshalSystemException(cdr.NewDecoder(e.Bytes(), cdr.BigEndian))
	if err != nil || se.Name != "TRANSIENT" || se.Minor != 7 || se.Completed != CompletedMaybe {
		t.Fatalf("round trip = %+v, %v", se, err)
	}
	// A non-OMG repo id survives verbatim as the name.
	e = cdr.NewEncoder(cdr.BigEndian)
	e.WriteString("IDL:vendor/Odd:2.0")
	e.WriteULong(0)
	e.WriteULong(0)
	se, err = unmarshalSystemException(cdr.NewDecoder(e.Bytes(), cdr.BigEndian))
	if err != nil || se.Name != "IDL:vendor/Odd:2.0" {
		t.Fatalf("vendor id = %+v, %v", se, err)
	}
}

// A CORBA::TIMEOUT that comes back as a reply (the server's copy of the
// propagated deadline fired first) carries the same chain as one the
// client's own timer produces; without a deadline it stays bare.
func TestTimeoutReplyAttributedToDeadline(t *testing.T) {
	o := NewORB()
	o.Activate("slow", servantFunc{
		RepoID: "IDL:test/Slow:1.0",
		Fn:     func(context.Context, string, *cdr.Decoder, *cdr.Encoder) error { return Timeout() },
	})
	ref := o.NewRef(o.NewIOR("IDL:test/Slow:1.0", "slow"))

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := ref.InvokeContext(ctx, "op", nil, nil)
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "TIMEOUT" {
		t.Fatalf("bounded call err = %v, want CORBA::TIMEOUT", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded call err = %v, want context.DeadlineExceeded in the chain", err)
	}

	err = ref.InvokeContext(context.Background(), "op", nil, nil)
	if !errors.As(err, &se) || se.Name != "TIMEOUT" {
		t.Fatalf("unbounded call err = %v, want CORBA::TIMEOUT", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unbounded call err = %v: no deadline to blame", err)
	}
}
