package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/gateway"
	"corbalc/internal/idl"
	"corbalc/internal/iiop"
	"corbalc/internal/orb"
	"corbalc/internal/svcctx"
)

// boardIDL is the one interface every data-path workload calls. The
// servant behind it does no work of its own, so every number is stack
// cost.
const boardIDL = `
module bench {
  struct Stroke { long x; long y; long colour; string author; };
  interface Board {
    long ping(in long v);
    sequence<octet> echo_bytes(in sequence<octet> data);
    long add_stroke(in Stroke s);
    // idempotent
    Stroke get_stroke(in long id);
    oneway void poke(in long v);
  };
};
`

const (
	boardRepoID = "IDL:bench/Board:1.0"
	boardKey    = "board"
	// callers is the fixed generator width: two client goroutines on two
	// client connections, whatever the host has.
	callers = 2
)

func writeStroke(e *cdr.Encoder, s stroke) {
	e.WriteLong(s.X)
	e.WriteLong(s.Y)
	e.WriteLong(s.Colour)
	e.WriteString(s.Author)
}

func readStroke(d *cdr.Decoder) (s stroke, err error) {
	if s.X, err = d.ReadLong(); err != nil {
		return s, err
	}
	if s.Y, err = d.ReadLong(); err != nil {
		return s, err
	}
	if s.Colour, err = d.ReadLong(); err != nil {
		return s, err
	}
	s.Author, err = d.ReadString()
	return s, err
}

// boardServant is the zero-delay servant. In a traced run it records a
// span of its own body for every request that carries a benchmark call
// id.
type boardServant struct {
	tr    *tracer
	pokes atomic.Int64
}

func (s *boardServant) RepositoryID() string { return boardRepoID }

func (s *boardServant) Invoke(op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	return s.serve(op, args, reply)
}

func (s *boardServant) InvokeContext(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	if s.tr == nil || s.tr.calls.Load() == 0 {
		return s.serve(op, args, reply)
	}
	req, parent, ok := parseCallID(svcctx.CallID(ctx))
	if !ok {
		return s.serve(op, args, reply)
	}
	start := time.Now()
	err := s.serve(op, args, reply)
	s.tr.add("servant", s.tr.newID(), parent, req, start, time.Now())
	return err
}

func (s *boardServant) serve(op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	switch op {
	case "ping":
		v, err := args.ReadLong()
		if err != nil {
			return orb.Marshal()
		}
		reply.WriteLong(v)
	case "echo_bytes":
		b, err := args.ReadOctetSeqAlias()
		if err != nil {
			return orb.Marshal()
		}
		reply.WriteOctetSeq(b)
	case "add_stroke":
		st, err := readStroke(args)
		if err != nil {
			return orb.Marshal()
		}
		reply.WriteLong(st.sum())
	case "get_stroke":
		id, err := args.ReadLong()
		if err != nil {
			return orb.Marshal()
		}
		writeStroke(reply, strokeOf(id))
	case "poke":
		if _, err := args.ReadLong(); err != nil {
			return orb.Marshal()
		}
		s.pokes.Add(1)
	default:
		return orb.BadOperation()
	}
	return nil
}

// stack is the data-path system under test: a backend ORB serving the
// Board over loopback IIOP, a client ORB with two stripes to it, and —
// for the web workloads — the gateway behind a loopback HTTP listener
// with one keep-alive client per caller.
type stack struct {
	repo    *idl.Repository
	servant *boardServant
	backend *orb.ORB
	srv     *iiop.Server
	client  *orb.ORB
	ref     *orb.ObjectRef

	gw      *gateway.Gateway
	handler http.Handler // gw.Handler() behind the span-recording wrapper
	hsrv    *http.Server
	hwg     sync.WaitGroup
	base    string
	clients []*http.Client
}

// newStack brings the data path up. web adds the gateway and its HTTP
// front end.
func newStack(tr *tracer, web bool) (*stack, error) {
	s := &stack{repo: idl.NewRepository(), servant: &boardServant{tr: tr}}
	if err := s.repo.ParseString("bench.idl", boardIDL); err != nil {
		return nil, fmt.Errorf("parsing bench.idl: %w", err)
	}
	s.backend = orb.NewORB()
	srv, err := iiop.ListenAndActivate(s.backend, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("iiop listen: %w", err)
	}
	s.srv = srv
	s.backend.Activate(boardKey, s.servant)

	s.client = orb.NewORB()
	s.client.RegisterTransport(&iiop.Transport{PoolSize: callers})
	s.ref = s.client.NewRef(s.backend.NewIOR(boardRepoID, boardKey))
	if !web {
		return s, nil
	}

	s.gw, err = gateway.New(gateway.Options{ORB: s.client, Repo: s.repo, CacheTTL: time.Hour})
	if err != nil {
		_ = s.close()
		return nil, err
	}
	if err := s.gw.Register(boardKey, s.ref, "bench::Board"); err != nil {
		_ = s.close()
		return nil, err
	}
	s.handler = tracedHandler(tr, s.gw.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.close()
		return nil, fmt.Errorf("http listen: %w", err)
	}
	s.hsrv = &http.Server{Handler: s.handler}
	s.hwg.Add(1)
	go func() {
		defer s.hwg.Done()
		_ = s.hsrv.Serve(ln) // returns ErrServerClosed on close
	}()
	s.base = "http://" + ln.Addr().String()
	for i := 0; i < callers; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return s, nil
}

// close stops every listener, connection and goroutine the stack owns.
func (s *stack) close() error {
	var errs []error
	for _, c := range s.clients {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
	if s.hsrv != nil {
		errs = append(errs, s.hsrv.Close())
		s.hwg.Wait()
	}
	if s.client != nil {
		s.client.Shutdown()
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	if s.backend != nil {
		s.backend.Shutdown()
	}
	return errors.Join(errs...)
}

// tracedHandler wraps the gateway's handler in a traced run: for a
// request that carries a benchmark call id it records a span around
// ServeHTTP and re-parents the call id, so the servant's span hangs
// under the gateway's.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent, ok := parseCallID(r.Header.Get("X-Call-Id"))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.newID()
		r.Header.Set("X-Call-Id", callID(req, id))
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.add("gateway.ServeHTTP", id, parent, req, start, time.Now())
	})
}
