package gateway

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// cacheEntries counts the stored entries across all shards.
func cacheEntries(c *cache) int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// TestCacheReadRacingWrite pins the generation rule for a read admitted
// before a write completes: a read admitted after the write neither
// follows its flight nor is served its answer, the old read's answer is
// never stored, and the old read's settle leaves the new flight
// registered.
func TestCacheReadRacingWrite(t *testing.T) {
	ctx := context.Background()
	const key = "calc\x00_get_calls\x00"

	// read starts c.do in the background. Its fill, if it runs, waits
	// for release and answers body; started closes when it begins.
	type read struct {
		started, release chan struct{}
		done             chan cacheResult
	}
	startRead := func(c *cache, gen *atomic.Uint64, body string) *read {
		r := &read{make(chan struct{}), make(chan struct{}), make(chan cacheResult, 1)}
		go func() {
			res, _ := c.do(ctx, key, gen, func() (int, []byte) {
				close(r.started)
				<-r.release
				return 200, []byte(body)
			})
			r.done <- res
		}()
		return r
	}
	waitFill := func(r *read, what string) {
		t.Helper()
		select {
		case <-r.started:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no fill started (it followed another flight)", what)
		}
	}
	result := func(r *read, what string) cacheResult {
		t.Helper()
		select {
		case res := <-r.done:
			return res
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no result", what)
			return cacheResult{}
		}
	}

	t.Run("old read finishes after the write", func(t *testing.T) {
		c := newCache(4, time.Minute)
		var gen atomic.Uint64
		old := startRead(c, &gen, "old")
		waitFill(old, "old read")
		gen.Add(1) // the write completes while the old read is in flight
		close(old.release)
		if res := result(old, "old read"); res.hit || string(res.body) != "old" {
			t.Fatalf("old read = %+v, want its own miss", res)
		}
		if n := cacheEntries(c); n != 0 {
			t.Fatalf("%d entries after a read that raced a write, want 0", n)
		}
		next := startRead(c, &gen, "new")
		waitFill(next, "read after the write")
		close(next.release)
		if res := result(next, "read after the write"); res.hit || string(res.body) != "new" {
			t.Fatalf("read after the write = %+v, want a miss", res)
		}
	})

	t.Run("new read overtakes the old one", func(t *testing.T) {
		c := newCache(4, time.Minute)
		var gen atomic.Uint64
		old := startRead(c, &gen, "old")
		waitFill(old, "old read")
		gen.Add(1)
		cur := startRead(c, &gen, "new")
		waitFill(cur, "read admitted after the write")

		// The old read settles while the new one is still in flight: the
		// new flight must stay registered for later readers to follow.
		close(old.release)
		result(old, "old read")
		sh := c.shard(key)
		sh.mu.Lock()
		fl := sh.flights[key]
		sh.mu.Unlock()
		if fl == nil || fl.gen != 1 {
			t.Fatalf("after the old read settled, flight = %+v, want the new generation's", fl)
		}
		close(cur.release)
		if res := result(cur, "new read"); res.hit || string(res.body) != "new" {
			t.Fatalf("read admitted after the write = %+v, want its own miss", res)
		}
		res, _ := c.do(ctx, key, &gen, func() (int, []byte) { return 200, []byte("refilled") })
		if !res.hit || string(res.body) != "new" {
			t.Fatalf("next read = %q hit %v, want the new generation's entry", res.body, res.hit)
		}
		if n := cacheEntries(c); n != 1 {
			t.Fatalf("%d entries, want 1", n)
		}
	})
}
