package iiop

// Regression tests for the write coalescer's failure path: a connection
// that dies while a flush is in flight must release every blocked
// follower, poison future writers, and never wedge a leader handoff —
// whatever the interleaving between the failing write, followers
// enqueueing into the next batch, and a new writer taking the flush
// token.

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corbalc/internal/giop"
	"corbalc/internal/leak"
)

// blockedConn blocks its first Write until released, then that write —
// and every later one — fails as if the peer closed mid-flush.
type blockedConn struct {
	release chan struct{}
	writes  atomic.Int32
}

func (c *blockedConn) Write(p []byte) (int, error) {
	if c.writes.Add(1) == 1 {
		<-c.release
	}
	return 0, io.ErrClosedPipe
}

// flakyConn serves a fixed number of writes, then fails forever.
type flakyConn struct {
	mu   sync.Mutex
	left int
}

func (c *flakyConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return 0, io.ErrClosedPipe
	}
	c.left--
	return len(p), nil
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCoalescerCloseReleasesFollowers pins the exact interleaving the
// pipeline can produce under churn: the leader is stuck in the socket
// write when the connection dies, while followers have already queued
// frames into the next batch and block awaiting its sequence. The
// sticky error must reach the leader, every follower, and any late
// writer — nobody may stay parked on the condition variable.
func TestCoalescerCloseReleasesFollowers(t *testing.T) {
	leak.Check(t)
	conn := &blockedConn{release: make(chan struct{})}
	co := newCoalescer(conn, 0)
	h := giop.Header{Version: giop.V12, Type: giop.MsgRequest}

	leaderErr := make(chan error, 1)
	go func() { leaderErr <- co.write(h, []byte("leader")) }()
	waitUntil(t, "leader to block in the socket write", func() bool {
		return conn.writes.Load() == 1
	})

	const followers = 16
	var wg sync.WaitGroup
	errs := make([]error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = co.write(h, []byte("follower"))
		}(i)
	}
	waitUntil(t, "followers to enqueue into the next batch", func() bool {
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.pend.frames == followers
	})

	close(conn.release) // the connection dies under the in-flight flush
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("follower %d: err = %v, want the sticky close error", i, err)
		}
	}
	if err := <-leaderErr; !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("leader: err = %v, want the sticky close error", err)
	}
	// The poisoned coalescer fails fast; a late writer must not become a
	// leader with an un-flushable batch.
	if err := co.write(h, []byte("late")); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("post-close write: err = %v, want the sticky close error", err)
	}
}

// TestCoalescerLeaderHandoffRacingClose drives packs of writers through
// coalescers whose connections fail at varying points, so the failing
// write keeps landing on different sides of a leader handoff (during a
// flush, between flush and stepDown, on the first write of a fresh
// leader). Every writer must return; under -race this also shakes out
// unsynchronised batch recycling on the poison path.
func TestCoalescerLeaderHandoffRacingClose(t *testing.T) {
	leak.Check(t)
	h := giop.Header{Version: giop.V12, Type: giop.MsgRequest}
	for round := 0; round < 32; round++ {
		co := newCoalescer(&flakyConn{left: round % 9}, 0)
		var wg sync.WaitGroup
		var failed atomic.Int32
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 16; i++ {
					if err := co.write(h, []byte("frame")); err != nil {
						failed.Add(1)
					}
				}
			}()
		}
		wg.Wait() // terminating at all is the assertion
		if failed.Load() == 0 {
			t.Fatalf("round %d: connection never failed; the race under test did not occur", round)
		}
		if co.stickyErr() == nil {
			t.Fatalf("round %d: writers failed but the coalescer is not poisoned", round)
		}
	}
}
