// Package iiop carries GIOP messages over TCP, providing the server side
// (a listener that dispatches inbound requests to an ORB through a
// bounded worker pool) and the client side (a transport whose striped
// connection pool multiplexes concurrent requests over a few connections
// per endpoint, demultiplexing replies by request ID). Writes on both
// sides flow through a group-committing coalescer (see coalesce.go) so
// concurrent small frames share syscalls.
package iiop

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/giop"
	"corbalc/internal/ior"
	"corbalc/internal/orb"
)

// connReadBufSize is the buffered-reader size for IIOP connections: big
// enough that a header read plus a typical body arrive in one syscall,
// so the old two-reads-per-message pattern stops hitting the socket
// twice.
const connReadBufSize = 32 << 10

// readerPool recycles connection read buffers; connections come and go
// (per-test servers, churning peers) but their 32 KiB buffers need not.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, connReadBufSize) }}

func getReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putReader(br *bufio.Reader) {
	br.Reset(nil) // drop the conn reference while pooled
	readerPool.Put(br)
}

// Handler consumes an inbound GIOP message and produces the reply (nil
// when none is due). The context is cancelled when the client sends a
// GIOP CancelRequest for the message's request ID or the connection
// dies. *orb.ORB satisfies it.
type Handler interface {
	HandleMessage(ctx context.Context, m *giop.Message) (*giop.Message, error)
}

// maxFragment is the body size beyond which GIOP 1.2 messages are
// fragmented, bounding head-of-line blocking on multiplexed connections
// (package transfers can be megabytes).
const maxFragment = 256 << 10

// DefaultDispatchQueue bounds queued-but-not-dispatched requests.
const DefaultDispatchQueue = 1024

// DefaultMaxDispatch is the dispatch worker-pool size: enough to keep
// every core busy with headroom for servants that block briefly, while
// keeping the server's goroutine count a small constant instead of
// O(in-flight requests).
func DefaultMaxDispatch() int {
	return max(32, 4*runtime.GOMAXPROCS(0))
}

// Server accepts IIOP connections and dispatches their requests through
// a bounded worker pool.
type Server struct {
	handler Handler
	ln      net.Listener
	// maxDispatch bounds concurrently-dispatched requests (the worker
	// pool size). Zero means DefaultMaxDispatch(); values below 1 mean a
	// single worker.
	maxDispatch int
	// dispatchQueue bounds requests accepted from connections but not
	// yet picked up by a worker. Zero means DefaultDispatchQueue;
	// negative means no queue (a request either reaches an idle worker
	// immediately or is refused). Overflow is answered with a CORBA
	// TRANSIENT system exception when a response is expected, else
	// dropped. Tests shrink both before Listen.
	dispatchQueue int

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	tasks    chan dispatchTask
	workerWG sync.WaitGroup
}

// NewServer returns a server dispatching to h.
func NewServer(h Handler) *Server {
	return &Server{handler: h, conns: make(map[net.Conn]struct{})}
}

// writeMaybeFragmented writes a message through the connection's
// vectored writer, fragmenting eligible large GIOP 1.2 bodies
// (Request, Reply, LocateRequest, LocateReply — see giop.Fragmentable).
// The caller holds the connection coalescer's flush token, which also
// serialises the writer's scratch state.
func writeMaybeFragmented(mw *giop.Writer, h giop.Header, body []byte) error {
	if len(body) > maxFragment && h.Version == giop.V12 && giop.Fragmentable(h.Type) {
		return mw.WriteMessageFragmented(h, body, maxFragment)
	}
	return mw.WriteMessage(h, body)
}

// Listen binds the server to addr (e.g. "127.0.0.1:0") and starts
// accepting in the background. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.startWorkers()
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// startWorkers builds the dispatch queue and worker pool once, sized
// from maxDispatch and dispatchQueue. Caller holds s.mu.
func (s *Server) startWorkers() {
	if s.tasks != nil {
		return
	}
	n := s.maxDispatch
	if n == 0 {
		n = DefaultMaxDispatch()
	}
	if n < 1 {
		n = 1
	}
	q := s.dispatchQueue
	if q == 0 {
		q = DefaultDispatchQueue
	}
	if q < 0 {
		q = 0
	}
	s.tasks = make(chan dispatchTask, q)
	for i := 0; i < n; i++ {
		s.workerWG.Add(1)
		go s.worker(s.tasks)
	}
}

// ListenAndActivate binds the server and records the resulting endpoint
// on o so subsequently minted IORs point at this server.
func ListenAndActivate(o *orb.ORB, addr string) (*Server, error) {
	s := NewServer(o)
	bound, err := s.Listen(addr)
	if err != nil {
		return nil, err
	}
	host, portStr, err := net.SplitHostPort(bound.String())
	if err != nil {
		return nil, err
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return nil, err
	}
	o.SetEndpoint(host, uint16(port))
	return s, nil
}

// track registers a live connection, or reports that the server is
// closed and the connection should be dropped.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			// The coalescer owns write batching; Nagle would stack a
			// second, uncontrolled delay on top of the commit window.
			_ = tc.SetNoDelay(true)
		}
		if !s.track(conn) {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// errCancelledByPeer is the cancellation cause recorded when a client's
// GIOP CancelRequest aborts an in-flight request.
var errCancelledByPeer = errors.New("iiop: request cancelled by peer")

// serverConn is the per-connection state shared between the read loop
// and the workers dispatching its requests.
type serverConn struct {
	srv  *Server
	conn net.Conn
	co   *coalescer

	// inflight maps the request IDs currently queued or being handled to
	// their request contexts, so a CancelRequest can abort them. A
	// context is cancelled only while inflightMu is held: finish also
	// unregisters-then-recycles under it, so a cancel can never land on a
	// context already rebound to a later request.
	inflightMu sync.Mutex
	inflight   map[uint32]*reqCtx

	connCtx context.Context
	reqWG   sync.WaitGroup
}

// dispatchTask is one inbound message handed to the worker pool. It is
// passed by value through the dispatch channel, so queueing a request
// costs no allocation (its cancel context is pooled).
type dispatchTask struct {
	sc  *serverConn
	m   *giop.Message
	ctx context.Context
	rc  *reqCtx // nil when the message carries no request ID
	id  uint32
}

// reqCtx is the pooled per-request cancel context: a real
// context.WithCancelCause context (so servants keep exact stdlib
// semantics — context.Cause, goroutine-free WithDeadline children)
// whose two-allocation construction is amortised away. The pool's
// invariant is that only never-cancelled contexts recycle: a cancelled
// context's done channel is spent, so finish retires it to the GC and
// the next request pays for a fresh one — cancellation is the rare
// path. The context is parented on Background rather than the
// connection context (a pooled context cannot re-parent), so connection
// teardown reaches in-flight servants by sweeping the inflight table
// (cancelAllInflight) instead of by parent propagation.
//
// Like every pooled request resource, a reqCtx is request-scoped:
// servants must not retain it past their return.
type reqCtx struct {
	context.Context
	cancel context.CancelCauseFunc
}

var reqCtxPool = sync.Pool{New: func() any {
	c := new(reqCtx)
	c.Context, c.cancel = context.WithCancelCause(context.Background())
	return c
}}

func getReqCtx() *reqCtx { return reqCtxPool.Get().(*reqCtx) }

// recycle returns c to the pool unless it was cancelled (its done
// channel is closed and abandoned watchers may still hold it). Safe only
// after the context is unregistered from the inflight table: from then
// on no cancel can reach it.
func (c *reqCtx) recycle() {
	if c.Err() == nil {
		reqCtxPool.Put(c)
	}
}

// causeIs reports whether the context was cancelled with the given cause.
func (c *reqCtx) causeIs(cause error) bool {
	return context.Cause(c.Context) == cause
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	sc := &serverConn{
		srv:      s,
		conn:     conn,
		co:       newCoalescer(conn, coalesceWindow),
		inflight: make(map[uint32]*reqCtx),
	}
	defer sc.reqWG.Wait()
	// connCtx parents every request dispatched from this connection.
	// Request contexts are pooled and do not watch it (see reqCtx), so
	// teardown explicitly cancels everything in flight — registered AFTER
	// the reqWG.Wait defer (defers run LIFO): the loop must cancel
	// in-flight dispatches before waiting for them, or a parked servant
	// would stall connection teardown.
	connCtx, connCancel := context.WithCancel(context.Background())
	sc.connCtx = connCtx
	defer connCancel()
	defer sc.cancelAllInflight()
	br := getReader(conn)
	defer putReader(br)
	ra := giop.NewReassembler()
	defer ra.Drop()
	for {
		raw, err := giop.ReadMessagePooled(br)
		if err != nil {
			sc.reportOversized(err)
			return
		}
		if raw.Header.Type == giop.MsgCloseConnection {
			raw.Release()
			return
		}
		m, err := ra.Add(raw)
		if m != raw {
			// Add copied (or rejected) the fragment; the wire buffer is
			// ours to recycle. When m == raw the message passes through
			// and the dispatch task owns it.
			raw.Release()
		}
		if err != nil {
			sc.reportOversized(err)
			return // corrupt or oversized fragment stream: drop the connection
		}
		if m == nil {
			continue // waiting for more fragments
		}
		if m.Header.Type == giop.MsgCancelRequest {
			if id, ok := giop.PeekRequestID(m); ok {
				sc.cancelInflight(id)
			}
			m.Release()
			continue
		}
		s.enqueue(sc, m)
	}
}

// reportOversized answers a read-loop failure that is an oversized
// frame or reassembly with MessageError before the connection drops:
// the headers decoded fine, so the peer can be told why.
func (sc *serverConn) reportOversized(err error) {
	if errors.Is(err, giop.ErrMessageSize) {
		_ = sc.co.write(giop.Header{Version: giop.V12, Type: giop.MsgMessageError}, nil)
	}
}

// cancelInflight aborts the queued or running request with the given ID
// on behalf of a peer CancelRequest. The cancel happens under inflightMu:
// once finish has unregistered a request (also under inflightMu), its
// pooled context may already be serving a later request, so cancelling
// outside the lock could abort the wrong call.
func (sc *serverConn) cancelInflight(id uint32) {
	sc.inflightMu.Lock()
	if rc := sc.inflight[id]; rc != nil {
		rc.cancel(errCancelledByPeer)
	}
	sc.inflightMu.Unlock()
}

// cancelAllInflight aborts every queued or running request at connection
// teardown, standing in for the parent-context propagation the pooled
// request contexts deliberately skip.
func (sc *serverConn) cancelAllInflight() {
	sc.inflightMu.Lock()
	for _, rc := range sc.inflight {
		rc.cancel(context.Canceled)
	}
	sc.inflightMu.Unlock()
}

// enqueue registers cancellation state for m and hands it to the worker
// pool. A full queue refuses the request instead of growing goroutines
// or memory without bound.
func (s *Server) enqueue(sc *serverConn, m *giop.Message) {
	t := dispatchTask{sc: sc, m: m, ctx: sc.connCtx}
	if m.Header.Type == giop.MsgRequest || m.Header.Type == giop.MsgLocateRequest {
		if id, ok := giop.PeekRequestID(m); ok {
			// Register before queueing so a CancelRequest overtaking the
			// dispatch still lands on the queued request.
			rc := getReqCtx()
			t.ctx, t.rc, t.id = rc, rc, id
			sc.inflightMu.Lock()
			sc.inflight[id] = rc
			sc.inflightMu.Unlock()
		}
	}
	sc.reqWG.Add(1)
	select {
	case s.tasks <- t:
	default:
		s.refuse(t)
	}
}

// refuse answers an overflowed request with a CORBA TRANSIENT system
// exception — the standard "retry later/elsewhere" signal — when a
// response is expected; oneways and locate probes are simply dropped.
func (s *Server) refuse(t dispatchTask) {
	defer t.sc.reqWG.Done()
	defer t.m.Release()
	t.finish()
	if t.m.Header.Type != giop.MsgRequest {
		return
	}
	var h giop.RequestHeader
	var d cdr.Decoder
	t.m.ResetBodyDecoder(&d)
	if err := giop.DecodeRequestInto(&d, t.m.Header.Version, &h); err != nil || !h.ResponseExpected {
		return
	}
	reply, err := orb.SystemExceptionReply(t.m.Header.Version, t.m.Header.Order, h.RequestID, orb.Transient())
	if err != nil {
		return
	}
	_ = t.sc.co.write(reply.Header, reply.Body)
	reply.Release()
}

// worker drains the dispatch queue. The channel is a parameter rather
// than a field read so Close may nil out s.tasks without racing the
// loop's range expression.
func (s *Server) worker(tasks chan dispatchTask) {
	defer s.workerWG.Done()
	for t := range tasks {
		t.run()
	}
}

// finish unregisters the task's inflight slot and recycles its context.
// The delete happens under inflightMu — the same lock cancelInflight
// cancels under — so after it, no cancel can reach this context and the
// recycle is safe.
func (t *dispatchTask) finish() {
	if t.rc == nil {
		return
	}
	t.sc.inflightMu.Lock()
	delete(t.sc.inflight, t.id)
	t.sc.inflightMu.Unlock()
	t.rc.recycle()
}

// cancelled reports whether the peer sent a CancelRequest for this task.
func (t *dispatchTask) cancelled() bool {
	return t.rc != nil && t.rc.causeIs(errCancelledByPeer)
}

// run dispatches one queued message: the worker-pool body mirroring the
// old per-request goroutine, preserving the release discipline — the
// request buffer is released when the dispatch is fully done with it,
// after the handler returns and the reply (which never aliases the
// request) has been written.
func (t *dispatchTask) run() {
	sc := t.sc
	defer sc.reqWG.Done()
	defer t.m.Release()
	defer t.finish()
	if sc.connCtx.Err() != nil {
		return // connection torn down while this request sat queued
	}
	reply, err := sc.srv.handler.HandleMessage(t.ctx, t.m)
	if err != nil || reply == nil {
		if err != nil {
			// Protocol-level failure: tell the peer and drop.
			_ = sc.co.write(giop.Header{
				Version: t.m.Header.Version, Order: t.m.Header.Order, Type: giop.MsgMessageError,
			}, nil)
		}
		return
	}
	defer reply.Release()
	if t.cancelled() {
		// The client sent CancelRequest: it no longer awaits this
		// reply, so writing it would only burn bandwidth.
		return
	}
	_ = sc.co.write(reply.Header, reply.Body)
}

// shutdown marks the server closed and hands back the listener and live
// connections to tear down; ok is false when already closed.
func (s *Server) shutdown() (ln net.Listener, conns []net.Conn, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, false
	}
	s.closed = true
	conns = make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	return s.ln, conns, true
}

// Close stops accepting and closes every live connection.
func (s *Server) Close() error {
	ln, conns, ok := s.shutdown()
	if !ok {
		return nil
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	// Every read loop has drained its own in-flight tasks (serveConn
	// waits on its reqWG before returning), so the queue is empty and
	// the workers can be released.
	s.mu.Lock()
	tasks := s.tasks
	s.tasks = nil
	s.mu.Unlock()
	if tasks != nil {
		close(tasks)
		s.workerWG.Wait()
	}
	return err
}

// DefaultCallTimeout bounds a two-way call when Transport.CallTimeout is
// left zero: a safety net against wedged connections, independent of any
// per-call context deadline.
const DefaultCallTimeout = 30 * time.Second

// Transport is the client-side IIOP transport, registered with an ORB to
// serve TagInternetIOP profiles.
type Transport struct {
	// CallTimeout bounds a single two-way request (default
	// DefaultCallTimeout; negative disables the limit).
	CallTimeout time.Duration
	// PoolSize is the number of striped connections the ORB keeps per
	// endpoint (see orb.PoolSizer). Zero means DefaultPoolSize();
	// negative means a single connection.
	PoolSize int
}

// DefaultPoolSize is the per-endpoint connection-pool size when
// Transport.PoolSize is zero: one stripe per core up to eight. Stripe
// selection is processor-affine (see orb's channel pool), so the
// natural fanout is one stripe per core — each core then owns its
// stripe's write coalescer and pending map almost exclusively. More
// stripes than cores cannot be written concurrently anyway.
func DefaultPoolSize() int {
	return min(8, runtime.GOMAXPROCS(0))
}

// ChannelPoolSize implements orb.PoolSizer, resolving the PoolSize knob.
func (t *Transport) ChannelPoolSize() int {
	switch {
	case t.PoolSize > 0:
		return t.PoolSize
	case t.PoolSize < 0:
		return 1
	}
	return DefaultPoolSize()
}

// effectiveCallTimeout resolves the CallTimeout knob: zero means the
// default, negative means no limit.
func (t *Transport) effectiveCallTimeout() time.Duration {
	switch {
	case t.CallTimeout == 0:
		return DefaultCallTimeout
	case t.CallTimeout < 0:
		return 0
	}
	return t.CallTimeout
}

// Tag implements orb.Transport.
func (t *Transport) Tag() uint32 { return ior.TagInternetIOP }

// Endpoint implements orb.Transport.
func (t *Transport) Endpoint(profile []byte) (string, error) {
	p, err := ior.DecodeIIOPProfile(profile)
	if err != nil {
		return "", err
	}
	return p.Addr(), nil
}

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// Dial implements orb.Transport. Establishment is bounded by both
// dialTimeout and ctx, whichever ends first.
func (t *Transport) Dial(ctx context.Context, profile []byte) (orb.Channel, error) {
	addr, err := t.Endpoint(profile)
	if err != nil {
		return nil, err
	}
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("iiop: dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// The coalescer owns write batching; Nagle would stack a second,
		// uncontrolled delay on top of the commit window.
		_ = tc.SetNoDelay(true)
	}
	c := &clientConn{
		conn:        conn,
		co:          newCoalescer(conn, coalesceWindow),
		pending:     make(map[uint32]pendingCall),
		callTimeout: t.effectiveCallTimeout(),
		reapStop:    make(chan struct{}),
	}
	//lint:ignore goroutinelifetime readLoop's lifetime IS the socket: it exits when conn.Read fails, and Close closes conn
	go c.readLoop()
	if c.callTimeout > 0 {
		go c.reaper()
	}
	return c, nil
}

// pendingCall is one in-flight two-way request awaiting its reply. gen
// is the reaper sweep generation at registration: the CallTimeout
// safety net is enforced by the connection's reaper counting sweeps
// rather than a per-call timer, so the per-call cost of the net is one
// map field instead of a clock read plus two timer-heap operations.
type pendingCall struct {
	ch  chan *giop.Message
	gen uint64
}

// clientConn multiplexes concurrent calls over one TCP connection. The
// ORB stripes an endpoint's traffic over a small pool of these, so each
// carries its own pending map — the reply-demux state is sharded
// per-stripe rather than contended globally.
type clientConn struct {
	conn        net.Conn
	co          *coalescer
	callTimeout time.Duration

	mu      sync.Mutex
	pending map[uint32]pendingCall
	reapGen uint64 // completed reaper sweeps
	err     error
	closed  bool

	reapStop chan struct{}
	reapOnce sync.Once
}

// errConnClosed reports a connection torn down mid-call.
var errConnClosed = errors.New("iiop: connection closed")

// reapSweeps is the number of reaper sweeps that make up one
// CallTimeout period.
const reapSweeps = 4

// reaper enforces the CallTimeout safety net for every pending call on
// the connection with a single ticker, sweeping the pending map at a
// quarter of the timeout. A call expires on the first sweep at which a
// full timeout has provably elapsed, so a timeout fires within
// [T, 1.25T] — acceptable slack for a last-resort net (callers needing
// precision use ctx deadlines) in exchange for removing a clock read,
// two timer-heap operations and a three-way select from every call.
func (c *clientConn) reaper() {
	period := c.callTimeout / reapSweeps
	if period < time.Millisecond {
		period = time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	tk := time.NewTicker(period)
	defer tk.Stop()
	for {
		select {
		case <-c.reapStop:
			return
		case <-tk.C:
			c.reap()
		}
	}
}

// stopReaper releases the reaper goroutine; safe to call repeatedly.
func (c *clientConn) stopReaper() {
	c.reapOnce.Do(func() { close(c.reapStop) })
}

// reap expires pending calls registered at least reapSweeps+1 sweeps
// ago — a call registered mid-period needs one extra sweep before a
// full timeout has provably elapsed. Deleting the slot under the lock
// makes the reaper the channel's only sender (the same ownership
// handoff readLoop uses), so the nil send below cannot race a reply;
// the waiter maps nil to CORBA::TIMEOUT.
func (c *clientConn) reap() {
	var expired []chan *giop.Message
	c.mu.Lock()
	c.reapGen++
	for id, pc := range c.pending {
		if c.reapGen-pc.gen > reapSweeps {
			delete(c.pending, id)
			expired = append(expired, pc.ch)
		}
	}
	c.mu.Unlock()
	for _, ch := range expired {
		ch <- nil
	}
}

// replyChanPool recycles the one-shot reply channels Call registers in
// the pending map. A channel may be recycled only on a path where the
// waiter's receive is known to be the channel's last traffic: the
// clean-reply and reaper-timeout paths, where the sender removed the
// pending slot before sending. On the ctx-abandon path a racing send may
// still be in flight, and on connection failure the channel is closed —
// those channels are left to the GC.
var replyChanPool sync.Pool

func getReplyChan() chan *giop.Message {
	if ch, _ := replyChanPool.Get().(chan *giop.Message); ch != nil {
		return ch
	}
	return make(chan *giop.Message, 1)
}

func (c *clientConn) readLoop() {
	br := getReader(c.conn)
	defer putReader(br)
	ra := giop.NewReassembler()
	defer ra.Drop()
	for {
		raw, err := giop.ReadMessagePooled(br)
		if err != nil {
			c.fail(err)
			return
		}
		m, err := ra.Add(raw)
		if m != raw {
			raw.Release() // fragment content was copied (or rejected)
		}
		if err != nil {
			c.fail(err)
			return
		}
		if m == nil {
			continue // mid-reassembly
		}
		switch m.Header.Type {
		case giop.MsgReply, giop.MsgLocateReply:
			id, ok := giop.PeekRequestID(m)
			if !ok {
				m.Release()
				c.fail(errors.New("iiop: undecodable reply header"))
				return
			}
			c.mu.Lock()
			pc := c.pending[id]
			delete(c.pending, id)
			c.mu.Unlock()
			if pc.ch != nil {
				// Ownership moves to the Call waiter, who releases the
				// reply once decoded.
				pc.ch <- m
			} else {
				// Abandoned call (timeout/cancel): nobody awaits this.
				m.Release()
			}
		case giop.MsgCloseConnection:
			m.Release()
			c.fail(io.EOF)
			return
		case giop.MsgMessageError:
			m.Release()
			c.fail(errors.New("iiop: peer reported message error"))
			return
		default:
			// Requests arriving on a client connection (bidirectional
			// GIOP) are not supported by the lightweight profile.
			m.Release()
		}
	}
}

func (c *clientConn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint32]pendingCall)
	c.mu.Unlock()
	for _, pc := range pending {
		close(pc.ch)
	}
	c.stopReaper()
	_ = c.conn.Close()
}

// register enrolls a reply channel for requestID, failing fast when the
// connection is already dead.
func (c *clientConn) register(requestID uint32, ch chan *giop.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	c.pending[requestID] = pendingCall{ch: ch, gen: c.reapGen}
	return nil
}

// Call implements orb.Channel. The reply wait ends when the reply
// arrives, ctx is done, or the CallTimeout safety net fires; in the
// latter two cases the pending slot is freed and a GIOP CancelRequest is
// sent so the server can abandon the work. A reply arriving after that is
// discarded by readLoop (no pending channel), leaving the multiplexed
// connection usable.
func (c *clientConn) Call(ctx context.Context, req *giop.Message, requestID uint32) (*giop.Message, error) {
	ch := getReplyChan()
	if err := c.register(requestID, ch); err != nil {
		return nil, err
	}

	if err := c.write(req); err != nil {
		// Not recycled: a concurrent fail() may already have snapshotted
		// (and be closing) this channel.
		c.mu.Lock()
		delete(c.pending, requestID)
		c.mu.Unlock()
		return nil, err
	}

	// The CallTimeout net is enforced by the connection's reaper, so a
	// call without a ctx deadline waits on a bare channel receive — no
	// per-call timer, no select.
	var m *giop.Message
	var ok bool
	if done := ctx.Done(); done == nil {
		m, ok = <-ch
	} else {
		select {
		case m, ok = <-ch:
		case <-done:
			c.abandonCall(requestID, req.Header, ch)
			return nil, ctx.Err()
		}
	}
	switch {
	case !ok:
		// fail closed the channel; it cannot be recycled.
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = errConnClosed
		}
		return nil, err
	case m == nil:
		// The reaper expired the call; it already freed the pending
		// slot, so the channel saw its last send and can be recycled.
		c.sendCancel(requestID, req.Header)
		replyChanPool.Put(ch)
		return nil, orb.Timeout()
	}
	replyChanPool.Put(ch)
	return m, nil
}

// unregister removes the pending slot for requestID, reporting whether
// this caller removed it. A false return means a sender (readLoop,
// reaper, or fail) already claimed the slot: exactly one delivery on the
// call's channel is then guaranteed (a message, a nil, or a close).
func (c *clientConn) unregister(requestID uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[requestID]; !ok {
		return false
	}
	delete(c.pending, requestID)
	return true
}

// abandonCall gives up on an in-flight call: the pending slot is freed
// and the server notified. If a sender already claimed the slot, its
// imminent delivery is consumed so the reply buffer is released instead
// of leaking into the one-shot channel — which also makes the channel
// recyclable on every non-failure path.
func (c *clientConn) abandonCall(requestID uint32, h giop.Header, ch chan *giop.Message) {
	if c.unregister(requestID) {
		// No sender ever saw this slot: the channel carries no traffic
		// and can be recycled immediately.
		c.sendCancel(requestID, h)
		replyChanPool.Put(ch)
		return
	}
	m, ok := <-ch
	if !ok {
		return // fail closed the channel; leave it to the GC
	}
	if m != nil {
		m.Release() // the raced-in reply nobody awaits
	}
	replyChanPool.Put(ch)
}

// sendCancel notifies the server that a call was abandoned with a
// best-effort GIOP CancelRequest, matching the request's wire dialect.
func (c *clientConn) sendCancel(requestID uint32, h giop.Header) {
	e := giop.GetBodyEncoder(h.Order)
	giop.EncodeCancelRequest(e, &giop.CancelRequestHeader{RequestID: requestID})
	msg := giop.MessageFromEncoder(giop.Header{
		Version: h.Version, Order: h.Order, Type: giop.MsgCancelRequest,
	}, e)
	_ = c.write(msg)
	msg.Release()
}

// Send implements orb.Channel (oneway requests).
func (c *clientConn) Send(ctx context.Context, req *giop.Message) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.write(req)
}

func (c *clientConn) write(m *giop.Message) error {
	return c.co.write(m.Header, m.Body)
}

// Unusable reports whether the connection has failed, letting the ORB's
// channel pool evict this stripe (redialling lazily) instead of handing
// out calls that can only error.
func (c *clientConn) Unusable() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// markClosed flips the closed flag, reporting whether this caller won.
func (c *clientConn) markClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.closed = true
	return true
}

// Close implements orb.Channel.
func (c *clientConn) Close() error {
	if c.markClosed() {
		c.fail(errConnClosed)
	}
	return nil
}
