// Package gateway maps IDL interfaces to an HTTP/1.1+JSON front end at
// runtime: POST /obj/{object}/{operation} resolves the target object in
// the gateway's route table, looks the operation up in the parsed
// interface repository (internal/idl), converts the JSON request body to
// CDR through DII and invokes the backend over the ORB's striped IIOP
// channel pool — no generated stubs, no per-interface handler code. The
// client-facing deadline (X-Timeout-Ms) becomes the server-side IIOP
// deadline and one correlation ID (X-Call-Id) travels end to end, so a
// servant observes web calls exactly like native ones.
//
// The hot path is engineered like the rest of the stack: pooled
// translation buffers (TransBuf over internal/bufpool), a sharded
// singleflight response cache for idempotent operations, and bounded
// in-flight admission that refuses overload with 503 the way the IIOP
// dispatch queue refuses with TRANSIENT.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/dii"
	"corbalc/internal/idl"
	"corbalc/internal/orb"
	"corbalc/internal/svcctx"
)

// Defaults for the Options knobs (README "Web gateway" tuning table).
const (
	DefaultMaxInFlight = 256
	DefaultCacheTTL    = 2 * time.Second
	DefaultCacheShards = 16
	DefaultMaxBody     = 1 << 20
	DefaultCallTimeout = 10 * time.Second
)

// Options configures a Gateway. Zero values select the documented
// defaults; negative values disable where noted.
type Options struct {
	// ORB performs the backend invocations. It must have the client
	// transports registered (iiop.Transport for TCP backends).
	ORB *orb.ORB
	// Repo is the parsed interface repository routes resolve
	// operations against.
	Repo *idl.Repository
	// MaxInFlight bounds concurrently-handled requests; overflow is
	// refused with 503, mirroring the IIOP dispatch queue's TRANSIENT
	// (default 256; negative means unbounded).
	MaxInFlight int
	// CacheTTL is how long idempotent responses stay servable from the
	// cache (default 2s; negative disables caching).
	CacheTTL time.Duration
	// CacheShards is the response-cache shard count (default 16).
	CacheShards int
	// MaxBody bounds one request body in bytes (default 1 MiB).
	MaxBody int
	// CallTimeout is the backend deadline applied when the client sends
	// no X-Timeout-Ms header (default 10s; negative means none).
	CallTimeout time.Duration
}

// Gateway is the HTTP front end. Routes are a copy-on-write map (reads
// on the request path are lock-free); registration is rare and goes
// through routeMu.
type Gateway struct {
	orb  *orb.ORB
	repo *idl.Repository

	routes  atomic.Pointer[map[string]*route]
	routeMu sync.Mutex

	cache       *cache
	sem         chan struct{} // admission slots; nil = unbounded
	maxInFlight int
	maxBody     int
	callTimeout time.Duration

	inFlight atomic.Int64
	rejected atomic.Uint64
}

// route is one published object: its typed DII handle plus the cache
// generation (bumped on writes and explicit invalidation, so cached
// reads filled before the bump stop being served) and per-operation
// counters. A re-registered name gets a new route, so its cached reads
// never answer for the route it replaced.
type route struct {
	name  string
	obj   *dii.Object
	gen   atomic.Uint64
	ops   atomic.Pointer[map[string]*opStats]
	opsMu sync.Mutex
}

// New builds a gateway from opts.
func New(opts Options) (*Gateway, error) {
	if opts.ORB == nil {
		return nil, errors.New("gateway: Options.ORB is required")
	}
	if opts.Repo == nil {
		return nil, errors.New("gateway: Options.Repo is required")
	}
	g := &Gateway{orb: opts.ORB, repo: opts.Repo}
	g.maxInFlight = opts.MaxInFlight
	if g.maxInFlight == 0 {
		g.maxInFlight = DefaultMaxInFlight
	}
	if g.maxInFlight > 0 {
		g.sem = make(chan struct{}, g.maxInFlight)
	}
	ttl := opts.CacheTTL
	if ttl == 0 {
		ttl = DefaultCacheTTL
	}
	if ttl > 0 {
		shards := opts.CacheShards
		if shards == 0 {
			shards = DefaultCacheShards
		}
		g.cache = newCache(shards, ttl)
	}
	g.maxBody = opts.MaxBody
	if g.maxBody <= 0 {
		g.maxBody = DefaultMaxBody
	}
	g.callTimeout = opts.CallTimeout
	if g.callTimeout == 0 {
		g.callTimeout = DefaultCallTimeout
	}
	empty := make(map[string]*route)
	g.routes.Store(&empty)
	return g, nil
}

// Register publishes ref under /obj/{name}, typed by the named interface
// (a scoped name like "demo::Calc" or a repository ID "IDL:demo/Calc:1.0").
func (g *Gateway) Register(name string, ref *orb.ObjectRef, iface string) error {
	if name == "" {
		return errors.New("gateway: route name must be non-empty")
	}
	t, ok := g.repo.LookupByRepoID(iface)
	if !ok {
		t, ok = g.repo.LookupType(iface)
	}
	if !ok {
		return fmt.Errorf("gateway: repository has no interface %q", iface)
	}
	obj, err := dii.Bind(ref, t)
	if err != nil {
		return err
	}
	rt := &route{name: name, obj: obj}
	emptyOps := make(map[string]*opStats)
	rt.ops.Store(&emptyOps)

	g.routeMu.Lock()
	defer g.routeMu.Unlock()
	cur := *g.routes.Load()
	next := make(map[string]*route, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[name] = rt
	g.routes.Store(&next)
	return nil
}

// RegisterIOR is Register for a stringified object reference
// (IOR:… hex or corbaloc:…).
func (g *Gateway) RegisterIOR(name, iorStr, iface string) error {
	ref, err := g.orb.ResolveStr(iorStr)
	if err != nil {
		return fmt.Errorf("gateway: route %q: %w", name, err)
	}
	return g.Register(name, ref, iface)
}

func (g *Gateway) route(name string) (*route, bool) {
	rt, ok := (*g.routes.Load())[name]
	return rt, ok
}

// Handler returns the gateway's HTTP handler:
//
//	POST   /obj/{object}/{operation}  invoke
//	DELETE /obj/{object}              invalidate the object's cached reads
//	GET    /metrics                   per-route counters (JSON)
//	GET    /healthz                   liveness
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /obj/{object}/{operation}", g.handleInvoke)
	mux.HandleFunc("DELETE /obj/{object}", g.handleInvalidate)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

// handleInvoke is the request hot path.
func (g *Gateway) handleInvoke(w http.ResponseWriter, r *http.Request) {
	// Admission first: under overload the cheapest possible refusal,
	// before any per-request resources are touched.
	if g.sem != nil {
		select {
		case g.sem <- struct{}{}:
			defer func() { <-g.sem }()
		default:
			g.rejected.Add(1)
			writeError(w, http.StatusServiceUnavailable, "gateway saturated: too many in-flight requests", "TRANSIENT")
			return
		}
	}
	g.inFlight.Add(1)
	defer g.inFlight.Add(-1)

	rt, ok := g.route(r.PathValue("object"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such object: "+r.PathValue("object"), "")
		return
	}
	opName := r.PathValue("operation")
	sig, ok := rt.obj.Signature(opName)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("interface %s has no operation %q", rt.obj.Iface.ScopedName(), opName), "")
		return
	}
	st := rt.op(opName)
	st.requests.Add(1)
	start := time.Now()

	tb := GetTransBuf()
	defer tb.Release()

	body, err := tb.readBody(r.Body, r.ContentLength, g.maxBody)
	if err != nil {
		st.errors.Add(1)
		if errors.Is(err, errBodyTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", g.maxBody), "")
		} else {
			writeError(w, http.StatusBadRequest, "reading request body: "+err.Error(), "")
		}
		return
	}
	if err := decodeArgs(tb, body, sig); err != nil {
		st.errors.Add(1)
		writeError(w, http.StatusBadRequest, err.Error(), "")
		return
	}

	// Deadline and correlation: the HTTP client's budget becomes the
	// IIOP deadline (svcctx injects ctx's deadline as SvcDeadline), and
	// one call ID spans browser → gateway → backend servant.
	ctx := r.Context()
	timeout := g.callTimeout
	if h := r.Header.Get("X-Timeout-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			st.errors.Add(1)
			writeError(w, http.StatusBadRequest, "bad X-Timeout-Ms: "+h, "")
			return
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	callID := r.Header.Get("X-Call-Id")
	if callID == "" {
		callID = svcctx.NewCallID()
	}
	ctx = svcctx.WithCallID(ctx, callID)
	w.Header().Set("X-Call-Id", callID)

	if g.cache != nil && sig.Op.Idempotent {
		g.invokeCached(ctx, w, rt, st, sig, opName, tb, start)
		return
	}

	status, respBody := g.invoke(ctx, rt, st, sig, opName, tb.args)
	// A completed mutation invalidates the object's cached reads:
	// bumping the generation makes every stored entry stale at once.
	if status < 400 && g.cache != nil {
		rt.gen.Add(1)
	}
	st.micros.Add(uint64(time.Since(start).Microseconds()))
	writeBody(w, status, respBody)
}

// invokeCached serves an idempotent operation through the sharded
// singleflight cache, keyed on (object, operation, CDR-canonical
// arguments) and valid for the route's current generation.
func (g *Gateway) invokeCached(ctx context.Context, w http.ResponseWriter, rt *route, st *opStats, sig *dii.Signature, opName string, tb *TransBuf, start time.Time) {
	key, err := cacheKey(rt, opName, sig, tb)
	if err != nil {
		st.errors.Add(1)
		writeError(w, http.StatusBadRequest, err.Error(), "")
		return
	}
	res, err := g.cache.do(ctx, key, &rt.gen, func() (int, []byte) {
		return g.invoke(ctx, rt, st, sig, opName, tb.args)
	})
	if err != nil {
		// Follower abandoned by its own deadline while the leader was
		// still filling.
		st.errors.Add(1)
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded: "+err.Error(), "TIMEOUT")
		return
	}
	if res.hit {
		st.cacheHits.Add(1)
		w.Header().Set("X-Cache", "hit")
	} else {
		st.cacheMisses.Add(1)
		w.Header().Set("X-Cache", "miss")
	}
	st.micros.Add(uint64(time.Since(start).Microseconds()))
	writeBody(w, res.status, res.body)
}

// cacheKey canonicalises the converted arguments through the same CDR
// encoding the wire uses, so JSON spellings of one logical argument list
// ({"a":1} vs [1], 1 vs 1.0) share a cache entry.
func cacheKey(rt *route, opName string, sig *dii.Signature, tb *TransBuf) (string, error) {
	e := getKeyEncoder()
	defer putKeyEncoder(e)
	for i, p := range sig.In {
		if err := idl.Encode(e, p.Type, tb.args[i]); err != nil {
			return "", badValue("parameter %s: %v", p.Name, err)
		}
	}
	k := tb.key[:0]
	k = append(k, rt.name...)
	k = append(k, 0)
	k = append(k, opName...)
	k = append(k, 0)
	k = append(k, e.Bytes()...)
	tb.key = k
	return string(k), nil
}

var keyEncoderPool = sync.Pool{New: func() any { return cdr.NewEncoder(cdr.LittleEndian) }}

func getKeyEncoder() *cdr.Encoder {
	e := keyEncoderPool.Get().(*cdr.Encoder)
	e.Reset(cdr.LittleEndian, 0)
	return e
}

func putKeyEncoder(e *cdr.Encoder) { keyEncoderPool.Put(e) }

// invoke performs the backend call and renders the response, returning
// (status, body). The body is freshly allocated (cache entries retain it).
func (g *Gateway) invoke(ctx context.Context, rt *route, st *opStats, sig *dii.Signature, opName string, args []any) (int, []byte) {
	res, err := rt.obj.CallContext(ctx, opName, args...)
	if err != nil {
		st.errors.Add(1)
		return renderError(err)
	}
	if sig.Op.Oneway {
		return http.StatusAccepted, []byte("{}\n")
	}
	return renderResult(res)
}

// handleInvalidate drops the object's cached responses by bumping its
// generation (DELETE /obj/{object}).
func (g *Gateway) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	rt, ok := g.route(r.PathValue("object"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such object: "+r.PathValue("object"), "")
		return
	}
	rt.gen.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// decodeArgs parses the JSON body into the operation's in-parameters:
// either a positional array or an object keyed by parameter name. An
// empty body means no arguments.
func decodeArgs(tb *TransBuf, body []byte, sig *dii.Signature) error {
	tb.args = tb.args[:0]
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		if len(sig.In) != 0 {
			return badValue("operation %s takes %d argument(s), got an empty body", sig.Op.Name, len(sig.In))
		}
		return nil
	}
	var raw any
	if err := json.Unmarshal(trimmed, &raw); err != nil {
		return badValue("bad JSON: %v", err)
	}
	switch x := raw.(type) {
	case []any:
		if len(x) != len(sig.In) {
			return badValue("operation %s takes %d argument(s), got %d", sig.Op.Name, len(sig.In), len(x))
		}
		for i, p := range sig.In {
			v, err := jsonToIDL(p.Type, x[i])
			if err != nil {
				return badValue("argument %d (%s): %v", i, p.Name, err)
			}
			tb.args = append(tb.args, v)
		}
	case map[string]any:
		if len(x) != len(sig.In) {
			for k := range x {
				known := false
				for _, p := range sig.In {
					if p.Name == k {
						known = true
						break
					}
				}
				if !known {
					return badValue("operation %s has no in-parameter %q", sig.Op.Name, k)
				}
			}
		}
		for _, p := range sig.In {
			pv, present := x[p.Name]
			if !present {
				return badValue("operation %s missing argument %q", sig.Op.Name, p.Name)
			}
			v, err := jsonToIDL(p.Type, pv)
			if err != nil {
				return badValue("argument %s: %v", p.Name, err)
			}
			tb.args = append(tb.args, v)
		}
	default:
		return badValue("expected a JSON array or object of arguments, got %s", jsonKind(raw))
	}
	return nil
}

// renderResult encodes a successful invocation: {"result": ..., "out": {...}}.
func renderResult(res *dii.Result) (int, []byte) {
	payload := make(map[string]any, 2)
	if res.Return != nil {
		payload["result"] = idlToJSON(res.Return)
	}
	if len(res.Out) > 0 {
		outs := make(map[string]any, len(res.Out))
		for k, v := range res.Out {
			outs[k] = idlToJSON(v)
		}
		payload["out"] = outs
	}
	b, err := json.Marshal(payload)
	if err != nil {
		return http.StatusInternalServerError, []byte(`{"error":"encoding response"}`)
	}
	return http.StatusOK, append(b, '\n')
}

// renderError maps an invocation failure onto HTTP, preserving the CORBA
// exception taxonomy: timeouts are 504, overload 503, other system
// exceptions 502 (the backend, not this gateway, failed), user
// exceptions 500 with their decoded members.
func renderError(err error) (int, []byte) {
	var te *translateError
	if errors.As(err, &te) {
		return errorBody(http.StatusBadRequest, te.msg, "")
	}
	if errors.Is(err, dii.ErrNoOperation) {
		return errorBody(http.StatusNotFound, err.Error(), "")
	}
	if errors.Is(err, dii.ErrArity) {
		return errorBody(http.StatusBadRequest, err.Error(), "")
	}
	var ue *dii.Exception
	if errors.As(err, &ue) {
		payload := map[string]any{
			"error":     "user exception",
			"exception": ue.Type.ScopedName(),
			"members":   idlToJSON(any(ue.Members)),
		}
		b, merr := json.Marshal(payload)
		if merr != nil {
			return errorBody(http.StatusInternalServerError, ue.Error(), "")
		}
		return http.StatusInternalServerError, append(b, '\n')
	}
	var se *orb.SystemException
	if errors.As(err, &se) {
		switch se.Name {
		case "TIMEOUT":
			return errorBody(http.StatusGatewayTimeout, err.Error(), se.Name)
		case "TRANSIENT":
			return errorBody(http.StatusServiceUnavailable, err.Error(), se.Name)
		default:
			return errorBody(http.StatusBadGateway, err.Error(), se.Name)
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return errorBody(http.StatusGatewayTimeout, err.Error(), "TIMEOUT")
	}
	return errorBody(http.StatusBadGateway, err.Error(), "")
}

func errorBody(status int, msg, corba string) (int, []byte) {
	payload := make(map[string]any, 2)
	payload["error"] = msg
	if corba != "" {
		payload["corba"] = corba
	}
	b, err := json.Marshal(payload)
	if err != nil {
		b = []byte(`{"error":"internal"}`)
	}
	return status, append(b, '\n')
}

func writeError(w http.ResponseWriter, status int, msg, corba string) {
	_, body := errorBody(status, msg, corba)
	writeBody(w, status, body)
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
