// Package sections is the per-function locks fixture: known-bad critical
// sections alongside known-good ones that must stay silent.
package sections

import (
	"context"
	"net"
	"sync"
	"time"

	"corbalc/internal/orb"
)

type registry struct {
	mu    sync.RWMutex
	peers map[string]string
	wg    sync.WaitGroup
	ch    chan string
}

// Bad: early return inside a manually released critical section.
func (r *registry) badEarlyReturn(k string) string {
	r.mu.Lock() // want `released manually but the critical section has 1 return path\(s\); use defer`
	if v, ok := r.peers[k]; ok {
		r.mu.Unlock()
		return v
	}
	r.mu.Unlock()
	return ""
}

// Bad: lock never released in this function.
func (r *registry) badLeak() {
	r.mu.Lock() // want `never released in this function`
	r.peers["x"] = "y"
}

// Bad: sleeping while the lock is held.
func (r *registry) badSleep() {
	r.mu.Lock()
	time.Sleep(time.Millisecond) // want `call to time.Sleep while holding r\.mu\.Lock\(\)`
	r.mu.Unlock()
}

// Bad: blocking under a deferred release too — the lock spans the call.
func (r *registry) badDialUnderDefer() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	conn, err := net.Dial("tcp", "peer:9000") // want `call to net\.Dial while holding r\.mu\.Lock\(\)`
	if err != nil {
		return err
	}
	return conn.Close()
}

// Bad: remote invocations under the lock, in every form internal code
// calls — the peer's latency becomes the lock's hold time.
func (r *registry) badInvokeUnderDefer(ctx context.Context, ref *orb.ObjectRef) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := ref.InvokeOnewayContext(ctx, "push", nil); err != nil { // want `ORB invocation InvokeOnewayContext while holding r\.mu\.Lock\(\)`
		return err
	}
	if err := ref.InvokeOnewayScoped(ctx, "push", nil, orb.SyncNone); err != nil { // want `ORB invocation InvokeOnewayScoped while holding`
		return err
	}
	return ref.InvokeContext(ctx, "ping", nil, nil) // want `ORB invocation InvokeContext while holding r\.mu\.Lock\(\)`
}

// Bad: reader locks follow the same rules.
func (r *registry) badReader() string {
	r.mu.RLock() // want `released manually but the critical section has 1 return path\(s\)`
	if len(r.peers) == 0 {
		r.mu.RUnlock()
		return ""
	}
	v := r.peers["x"]
	r.mu.RUnlock()
	return v
}

// Bad: waiting on a WaitGroup and touching channels under the lock.
func (r *registry) badWaitAndSend(v string) {
	r.mu.Lock()
	r.wg.Wait() // want `call to sync\.WaitGroup\.Wait while holding`
	r.ch <- v   // want `channel send while holding r\.mu\.Lock\(\)`
	<-r.ch      // want `channel receive while holding r\.mu\.Lock\(\)`
	r.mu.Unlock()
}

// Good: defer-released critical section with early returns.
func (r *registry) goodDefer(k string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.peers[k]; ok {
		return v
	}
	return ""
}

// Good: straight-line manual release with no return inside the section.
func (r *registry) goodManual(k, v string) {
	r.mu.Lock()
	r.peers[k] = v
	r.mu.Unlock()
}

// Good: snapshot under lock, block after releasing.
func (r *registry) goodSnapshotThenSend() {
	r.mu.RLock()
	v := r.peers["x"]
	r.mu.RUnlock()
	r.ch <- v
	time.Sleep(time.Millisecond)
}

// Good: two disjoint critical sections with a return between them must
// not be merged into one span.
func (r *registry) goodTwoSections(k string) string {
	r.mu.Lock()
	v := r.peers[k]
	r.mu.Unlock()
	if v != "" {
		return v
	}
	r.mu.Lock()
	r.peers[k] = "default"
	r.mu.Unlock()
	return "default"
}

// Good: release performed by a deferred closure.
func (r *registry) goodDeferredClosure(k string) string {
	r.mu.Lock()
	defer func() {
		delete(r.peers, k)
		r.mu.Unlock()
	}()
	if v, ok := r.peers[k]; ok {
		return v
	}
	return ""
}

// Good: blocking inside a goroutine does not hold the caller's lock.
func (r *registry) goodGoroutine() {
	r.mu.Lock()
	go func() {
		time.Sleep(time.Millisecond)
		r.ch <- "tick"
	}()
	r.mu.Unlock()
}

// Good: selects are exempt — they are assumed to carry timeout arms.
func (r *registry) goodSelect(v string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case r.ch <- v:
	default:
	}
}

// Good: sync.Cond.Wait is called with the lock held by design.
type condQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func (q *condQueue) take() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		q.cond.Wait()
	}
	q.n--
}

// Suppressed: an acknowledged violation stays silent.
func (r *registry) suppressedSleep() {
	r.mu.Lock()
	//lint:ignore locks fixture demonstrates an acknowledged wait under lock
	time.Sleep(time.Millisecond)
	r.mu.Unlock()
}
