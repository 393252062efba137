// Write coalescing: under caller fan-in, many small GIOP frames headed
// for the same connection are group-committed into a single writev, so
// the syscalls/call ratio drops with concurrency instead of staying at
// one. The design is caller-driven — there is no flusher goroutine to
// leak or to add a scheduling hop on the C=1 latency path:
//
//   - The first writer to find the connection idle becomes the *leader*:
//     it batches whatever is pending (its own frame plus anything
//     concurrent callers appended) and issues one vectored write.
//   - Writers arriving while a flush is in progress are *followers*:
//     they append their frame to the next batch and block until the
//     batch carrying their frame has been written (tracked by batch
//     sequence number), preserving the Channel contract that the caller
//     may recycle the request buffer as soon as the call returns.
//   - Adaptively, the leader yields the processor while each yield
//     grows the batch, bounded by the coalescing window, then flushes.
//     A connection with a single caller pays one no-op yield (sub-µs)
//     and flushes immediately; under fan-in the yields hand the CPU to
//     the very writers whose frames the batch is waiting for. The
//     worst-case extra latency a frame can pay is one window plus one
//     in-flight batch.
//   - Large or fragmented frames bypass batching: the writer takes the
//     flush token exclusively, drains small frames queued ahead of it,
//     and streams through the connection's fragmenting writer.
//
// A write error poisons the coalescer: every waiter and all future
// writers get the sticky error, mirroring clientConn.fail.
package iiop

import (
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"corbalc/internal/giop"
)

// coalesceWindow is the group-commit window every connection applies,
// only under detected fan-in (DESIGN.md §10 has the ablation that keeps
// it).
const coalesceWindow = 50 * time.Microsecond

// coalesceBypass is the body size beyond which a frame skips batching:
// past this point the writev already carries a full TCP segment and
// batching only adds memory pressure from pinned bodies. It is below
// maxFragment, so every frame that needs fragmenting bypasses too.
const coalesceBypass = 32 << 10

// wbatch accumulates encoded frames for one vectored write. Headers
// live in the batch (value array, no per-frame allocation); bodies are
// referenced, not copied — the owning caller is blocked until the batch
// is flushed, so the references stay valid. SyncNone frames instead
// transfer ownership of their whole pooled message to the batch (owned),
// whose reset releases them once the batch has flushed — or been dropped
// on a poisoned connection.
type wbatch struct {
	vecs   net.Buffers
	hdrs   [][giop.HeaderLen]byte
	owned  []*giop.Message
	frames int
	seq    uint64
}

func (b *wbatch) add(h giop.Header, body []byte) {
	n := len(b.hdrs)
	b.hdrs = append(b.hdrs, giop.EncodeHeader(h, len(body)))
	b.vecs = append(b.vecs, b.hdrs[n][:])
	if len(body) > 0 {
		b.vecs = append(b.vecs, body)
	}
	b.frames++
}

// addOwned appends a frame whose pooled message now belongs to the
// batch: reset (post-flush or post-poison) is its release point.
func (b *wbatch) addOwned(m *giop.Message) {
	b.add(m.Header, m.Body)
	b.owned = append(b.owned, m)
}

// reset releases owned messages, drops the body references (so pooled
// buffers are not pinned by the recycled batch) and empties the batch
// for reuse.
func (b *wbatch) reset() {
	for i, m := range b.owned {
		m.Release()
		b.owned[i] = nil
	}
	b.owned = b.owned[:0]
	for i := range b.vecs {
		b.vecs[i] = nil
	}
	b.vecs = b.vecs[:0]
	b.hdrs = b.hdrs[:0]
	b.frames = 0
}

// coalescer serialises all writes on one connection, group-committing
// small frames. It replaces the bare write-mutex both clientConn and the
// server connection loop used to hold around their giop.Writer.
type coalescer struct {
	conn   io.Writer
	mw     *giop.Writer  // big-frame path; used only while holding the flush token
	window time.Duration // fan-in wait; <= 0 disables the timed window

	// enq counts frames ever enqueued; the leader's gather loop reads it
	// lock-free to detect batch growth instead of taking mu every yield.
	enq atomic.Uint64

	mu       sync.Mutex
	cond     sync.Cond
	pend     *wbatch // frames awaiting the next flush (never nil)
	spare    *wbatch // recycled batch (nil only while a flush is in flight)
	wvecs    net.Buffers
	flushing bool   // flush token: one leader or one big writer at a time
	pendSeq  uint64 // sequence the current pend batch will carry; starts at 1
	doneSeq  uint64 // highest batch sequence fully written; 0 = none yet
	err      error  // sticky first write error
}

// newCoalescer wraps conn (net.Buffers.WriteTo uses writev when the
// writer is a net.Conn).
func newCoalescer(conn io.Writer, window time.Duration) *coalescer {
	co := &coalescer{
		conn:    conn,
		mw:      giop.NewWriter(conn),
		window:  window,
		pend:    &wbatch{},
		spare:   &wbatch{},
		pendSeq: 1, // so doneSeq's zero value never satisfies await(firstBatch)
	}
	co.cond.L = &co.mu
	return co
}

// write queues one GIOP frame and blocks until it has reached the
// socket (or the connection failed).
func (co *coalescer) write(h giop.Header, body []byte) error {
	if len(body) >= coalesceBypass {
		return co.writeBig(h, body)
	}
	leader, seq, err := co.enqueue(h, body)
	if err != nil {
		return err
	}
	if !leader {
		return co.await(seq)
	}
	if err := co.lead(true); err != nil {
		// The connection is poisoned, but if our own frame's batch went
		// out before the failure the call itself succeeded.
		if !co.sent(seq) {
			return err
		}
	}
	return nil
}

// writeOwned queues one GIOP frame whose pooled message the coalescer
// takes ownership of (SyncNone oneways). Once the frame is accepted the
// caller does not wait for the flush: a follower returns immediately
// (its batch's reset releases the message after the vectored write), a
// leader still performs the write it now owes the batch. On error —
// sticky connection failure before acceptance, or a big-frame write
// failure — ownership stays with the caller, who may retry elsewhere.
func (co *coalescer) writeOwned(m *giop.Message) error {
	if len(m.Body) >= coalesceBypass {
		// The exclusive big-frame path writes synchronously anyway, so
		// there is no flush to decouple from: write, then release.
		if err := co.writeBig(m.Header, m.Body); err != nil {
			return err
		}
		m.Release()
		return nil
	}
	leader, err := co.enqueueOwned(m)
	if err != nil {
		return err
	}
	if leader {
		// The flush outcome belongs to the batch (reset releases the
		// owned frames either way); a SyncNone sender gets no delivery
		// report once the frame is accepted.
		_ = co.lead(true)
	}
	return nil
}

// enqueueOwned is enqueue for an ownership-transferring frame: on
// success the pending batch owns m.
func (co *coalescer) enqueueOwned(m *giop.Message) (leader bool, err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.err != nil {
		return false, co.err
	}
	co.pend.addOwned(m)
	co.enq.Add(1)
	if co.flushing {
		return false, nil
	}
	co.flushing = true
	return true, nil
}

// enqueue appends the frame to the pending batch. The first writer on
// an idle connection takes the flush token and becomes leader; others
// learn the batch sequence to await.
func (co *coalescer) enqueue(h giop.Header, body []byte) (leader bool, seq uint64, err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.err != nil {
		return false, 0, co.err
	}
	co.pend.add(h, body)
	co.enq.Add(1)
	seq = co.pendSeq
	if co.flushing {
		return false, seq, nil
	}
	co.flushing = true
	return true, seq, nil
}

// await blocks until the batch carrying seq has been written or the
// connection failed. A batch that made it out before the failure still
// counts as sent.
func (co *coalescer) await(seq uint64) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	for co.doneSeq < seq && co.err == nil {
		co.cond.Wait()
	}
	if co.doneSeq >= seq {
		return nil
	}
	return co.err
}

// sent reports whether the batch carrying seq was fully written.
func (co *coalescer) sent(seq uint64) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.doneSeq >= seq
}

// lead runs the group-commit loop: flush batches until the queue is
// empty, then release the flush token. Only the holder of the flush
// token may call it.
func (co *coalescer) lead(window bool) error {
	if window && co.window > 0 {
		co.gather()
	}
	for {
		co.flush()
		if done, err := co.stepDown(); done {
			return err
		}
	}
}

// gather is the group-commit wait: the leader yields the processor so
// already-runnable writers can append to the batch, and keeps yielding
// only while each yield grows it, bounded by the window. Yielding
// instead of sleeping matters twice over: a timer sleep costs
// milliseconds of latency on coarse-grained kernels, and on a saturated
// scheduler the yield donates the CPU to exactly the goroutines whose
// frames the batch is waiting for. With no other runnable goroutine
// (the single-caller case) the first yield returns immediately, adds
// nothing, and the flush proceeds — so an idle connection never waits.
func (co *coalescer) gather() {
	var deadline time.Time
	for {
		before := co.enq.Load()
		runtime.Gosched()
		if co.enq.Load() == before {
			return
		}
		now := time.Now()
		if deadline.IsZero() {
			deadline = now.Add(co.window)
		} else if now.After(deadline) {
			return
		}
	}
}

// flush writes pending batches until the queue is empty or the
// connection fails.
func (co *coalescer) flush() {
	for {
		b := co.takeBatch()
		if b == nil {
			return
		}
		// The in-flight vector lives in a coalescer field so the
		// *net.Buffers receiver does not force a per-flush heap
		// allocation; WriteTo consumes the copy, the batch keeps the
		// original entries for reset to nil out.
		co.wvecs = b.vecs
		_, werr := co.wvecs.WriteTo(co.conn)
		co.wvecs = nil
		co.putBatch(b, werr)
		if werr != nil {
			return
		}
	}
}

// takeBatch claims the pending batch for writing, or returns nil when
// there is nothing to write (or the connection already failed).
func (co *coalescer) takeBatch() *wbatch {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.err != nil || co.pend.frames == 0 {
		return nil
	}
	b := co.pend
	b.seq = co.pendSeq
	co.pendSeq++
	co.pend = co.spare
	co.spare = nil
	return b
}

// putBatch records the outcome of a flushed batch and recycles it.
func (co *coalescer) putBatch(b *wbatch, werr error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	b.reset()
	co.spare = b
	if werr != nil {
		if co.err == nil {
			co.err = werr
		}
	} else {
		co.doneSeq = b.seq
	}
	co.cond.Broadcast()
}

// stepDown releases the flush token if the queue is empty; when frames
// slipped in after the last flush it keeps the token and reports the
// leader must loop. On a poisoned connection leftover frames are
// dropped and their waiters released with the sticky error.
func (co *coalescer) stepDown() (done bool, err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.err == nil && co.pend.frames > 0 {
		return false, nil
	}
	if co.err != nil && co.pend.frames > 0 {
		co.pend.reset()
	}
	co.flushing = false
	co.cond.Broadcast()
	return true, co.err
}

// acquireExclusive waits for the flush token, for writers that need the
// raw connection (fragmenting path).
func (co *coalescer) acquireExclusive() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	for co.flushing && co.err == nil {
		co.cond.Wait()
	}
	if co.err != nil {
		return co.err
	}
	co.flushing = true
	return nil
}

// poison records a write failure from the exclusive path.
func (co *coalescer) poison(err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.err == nil {
		co.err = err
	}
}

// writeBig writes one large (possibly fragmented) frame outside the
// batching path: it takes the flush token, drains small frames queued
// ahead so ordering is preserved per caller, streams the frame through
// the fragmenting writer, then drains stragglers and steps down.
func (co *coalescer) writeBig(h giop.Header, body []byte) error {
	if err := co.acquireExclusive(); err != nil {
		return err
	}
	co.flush()
	err := co.stickyErr()
	if err == nil {
		err = writeMaybeFragmented(co.mw, h, body)
		if err != nil {
			co.poison(err)
		}
	}
	if lerr := co.lead(false); err == nil && lerr != nil {
		err = lerr
	}
	return err
}

// stickyErr returns the recorded connection error, if any.
func (co *coalescer) stickyErr() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.err
}
