package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// window is one run's timeline: a warm-up that is driven but discarded,
// then `slices` measured slices of sliceLen each. With a tracer, odd
// slices are traced and even ones are not, so one run yields the traced
// and the untraced rate under the same warmth.
type window struct {
	start    time.Time // first measured instant
	slices   int
	sliceLen time.Duration
	tr       *tracer
}

func (w *window) end() time.Time { return w.start.Add(time.Duration(w.slices) * w.sliceLen) }

// sliceOf maps an instant to its slice: negative during warm-up,
// w.slices or more once the window has closed.
func (w *window) sliceOf(t time.Time) int {
	d := t.Sub(w.start)
	if d < 0 {
		return -1
	}
	return int(d / w.sliceLen)
}

// tracedSlice reports whether operations starting in slice i may record
// spans.
func (w *window) tracedSlice(i int) bool { return w.tr != nil && i >= 0 && i&1 == 1 }

// traceEvery thins tracing inside a traced slice to every n-th operation
// of a stream. Carrying a call id takes a native call off the ORB's
// allocation-free path and costs it a quarter of its rate; one op in
// eight still fills the span buffer on the fast workloads and keeps the
// traced rate within a few percent of the untraced one.
const traceEvery = 8

// tracerFor returns the tracer for a stream's i-th operation starting at
// t, nil when that operation is not traced.
func (w *window) tracerFor(i int, t time.Time) *tracer {
	if i%traceEvery == 0 && w.tracedSlice(w.sliceOf(t)) {
		return w.tr
	}
	return nil
}

// recorder holds one completion stream's samples. It is filled by a
// single goroutine and read after that goroutine has finished.
type recorder struct {
	buf       *sampleBuf
	lat       []time.Duration // latency of each verified op, in completion order; backed by buf
	cuts      []int           // cuts[i] = len(lat) when slice i closed
	cutDone   []time.Duration // cutDone[i] = when the last op of slices 0..i completed, from the window's start
	lastDone  time.Duration   // completion of the latest op, from the window's start (negative in warm-up)
	warmDone  time.Duration   // lastDone when the first measured op was filed
	attempted int             // every op issued, warm-up included
	failed    int             // errors, refusals, wrong replies
}

// newRecorder maps room for capacity samples outside the Go heap. Past
// capacity, samples spill onto the heap rather than being lost.
func newRecorder(capacity int) (*recorder, error) {
	buf, err := newSampleBuf(capacity)
	if err != nil {
		return nil, err
	}
	return &recorder{buf: buf, lat: buf.lat}, nil
}

// newRecorders makes n recorders, or none, each with room for a stream
// completing perSecond operations a second through w (with as much
// again to spare; a faster stream spills onto the heap).
func newRecorders(n int, w *window, perSecond int) ([]*recorder, error) {
	capacity := 2 * perSecond * int(1+(time.Duration(w.slices)*w.sliceLen).Seconds())
	recs := make([]*recorder, 0, n)
	for i := 0; i < n; i++ {
		r, err := newRecorder(capacity)
		if err != nil {
			for _, made := range recs {
				made.release()
			}
			return nil, err
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// release unmaps the sample buffer; the recorder's samples are gone.
func (r *recorder) release() {
	r.lat = nil
	_ = r.buf.free() // nothing to do about a failed munmap at exit
}

// record files one finished op under the slice it completed in and
// reports whether the window has closed. Failed ops leave no latency
// sample: they count against fail_ratio, not toward ops_per_s.
func (r *recorder) record(w *window, done time.Time, lat time.Duration, ok bool) (closed bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
	s := w.sliceOf(done)
	for len(r.cuts) < min(s, w.slices) {
		r.cuts = append(r.cuts, len(r.lat))
		r.cutDone = append(r.cutDone, r.lastDone)
	}
	if s >= w.slices {
		return true
	}
	if ok {
		if s >= 0 {
			if len(r.lat) == 0 {
				r.warmDone = r.lastDone
			}
			r.lat = append(r.lat, lat)
		}
		r.lastDone = done.Sub(w.start)
	}
	return false
}

// rate returns slice i's completions per second: the slice's count over
// the time from the last completion before the slice to the last one in
// it, which — unlike count over slice length — is not quantised to whole
// operations. ok is false for a slice in which nothing completed.
func (r *recorder) rate(i int) (perSecond float64, ok bool) {
	n := len(r.slice(i))
	if n == 0 {
		return 0, false
	}
	from := r.warmDone
	if i > 0 {
		from = r.cutDone[i-1]
	}
	to := r.lastDone
	if i < len(r.cutDone) {
		to = r.cutDone[i]
	}
	return float64(n) / (to - from).Seconds(), to > from
}

// slice returns the samples of slice i.
func (r *recorder) slice(i int) []time.Duration {
	lo := 0
	if i > 0 {
		lo = r.cuts[i-1]
	}
	hi := len(r.lat)
	if i < len(r.cuts) {
		hi = r.cuts[i]
	}
	return r.lat[lo:hi]
}

// usage is a process-wide resource snapshot: client, server and
// generator together, the same on both sides of any comparison.
type usage struct {
	mallocs uint64
	bytes   uint64
	cpu     time.Duration // user + system
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, cpu: processCPU()}
}

// processCPU reads the process's CPU clock: the scheduler's own
// nanosecond account of every thread's run time. getrusage would not
// do: its user and system times are sampled at the timer tick, and an
// open loop that wakes on a millisecond schedule aliases with the tick —
// gw_mix_open's cost per request read anywhere from 105 to 163 µs that
// way on one commit.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID, linux/time.h
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0 // not on any Linux; a run of zeros shows in the result
	}
	return time.Duration(ts.Nano())
}

// heapLiveMiB forces a collection and returns the live heap.
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// driven is what driving a window yields.
type driven struct {
	recs  []*recorder
	edges []usage // process resources at every slice edge: slices+1 snapshots
}

// drive runs one stream per recorder concurrently through w,
// snapshotting process resources at every slice edge. Each stream must
// return once the window has closed.
func drive(w *window, recs []*recorder, stream func(i int, rec *recorder)) driven {
	d := driven{recs: recs}
	var wg sync.WaitGroup
	for i, rec := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream(i, rec)
		}()
	}
	for i := 0; i <= w.slices; i++ {
		time.Sleep(time.Until(w.start.Add(time.Duration(i) * w.sliceLen)))
		d.edges = append(d.edges, snapshot())
	}
	wg.Wait()
	return d
}

// closedLoop issues op back to back: the next starts when the previous
// completes, so a slow system is offered less load. op gets the op's
// index and, in a traced slice, the tracer.
func closedLoop(w *window, rec *recorder, op func(i int, tr *tracer) bool) {
	t0 := time.Now()
	for i := 0; ; i++ {
		ok := op(i, w.tracerFor(i, t0))
		t1 := time.Now()
		if rec.record(w, t1, t1.Sub(t0), ok) {
			return
		}
		t0 = t1
	}
}

// openLoop issues op i when the schedule says it is due, whether or not
// earlier ops were slow, and times it from the due instant: a stall
// shows up as latency on every op it delayed. late collects how far
// behind its schedule the generator itself started each op.
func openLoop(w *window, rec *recorder, sched schedule, n int, late *[]time.Duration, op func(i int, tr *tracer) bool) {
	for i := 0; i < n; i++ {
		due := sched.due(i)
		sleepUntil(due)
		begin := time.Now()
		s := w.sliceOf(due)
		if s >= 0 && s < w.slices {
			*late = append(*late, begin.Sub(due))
		}
		ok := op(i, w.tracerFor(i, due))
		done := time.Now()
		if rec.record(w, done, done.Sub(due), ok) {
			return
		}
	}
}

// sleepUntil blocks in nanosleep(2) until t. time.Sleep will not do for
// pacing: when every P is idle the runtime's timers ride epoll_wait's
// millisecond timeout, and a generator half a millisecond late on
// average would be measuring itself.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}
