package gateway

import (
	"context"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"
)

// cache is the sharded idempotent-response cache. A key names only the
// question (object, operation, CDR arguments); each entry records the
// route incarnation and generation it was filled for, so invalidation is
// an O(1) generation bump and a stale entry is deleted in place the next
// time its key is read. Entries are therefore bounded by distinct keys,
// not by writes. Each shard collapses concurrent misses on the same key
// and generation into one backend call (singleflight): under a miss
// storm the backend sees one invocation per (key, TTL window), not one
// per client.
type cache struct {
	ttl    time.Duration
	shards []cacheShard
	seed   maphash.Seed
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]cacheEntry
	flights map[string]*flight
}

// validity names the answer a fill produced: the route incarnation (its
// generation counter, which a re-registered route replaces) and the
// generation read when the request was admitted.
type validity struct {
	route *atomic.Uint64
	gen   uint64
}

// current reports whether nothing has invalidated the answer since
// admission.
func (v validity) current() bool { return v.gen == v.route.Load() }

type cacheEntry struct {
	validity
	status int
	body   []byte
	exp    time.Time
}

// flight is one in-progress fill: followers wait on done and read the
// result fields afterwards (written once, before close).
type flight struct {
	validity
	done   chan struct{}
	status int
	body   []byte
}

// shardSweepLimit bounds a shard's entry map: inserts past the limit
// sweep expired and invalidated entries first, so an adversarial key
// stream cannot grow the map without bound.
const shardSweepLimit = 4096

func newCache(shards int, ttl time.Duration) *cache {
	if shards <= 0 {
		shards = 16
	}
	c := &cache{ttl: ttl, shards: make([]cacheShard, shards), seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]cacheEntry)
		c.shards[i].flights = make(map[string]*flight)
	}
	return c
}

func (c *cache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// cacheResult is what a lookup resolves to: the response and whether it
// was served without invoking the backend (a stored entry or a followed
// flight).
type cacheResult struct {
	status int
	body   []byte
	hit    bool
}

// do returns the cached response for key under the route generation
// counter gen, or runs fill (as singleflight leader) to produce it.
// Followers block until the leader resolves or their own ctx gives up.
// Only 200 responses are stored; whatever the leader produces is still
// delivered to its followers (they asked the same question and would
// have failed the same way).
func (c *cache) do(ctx context.Context, key string, gen *atomic.Uint64, fill func() (int, []byte)) (cacheResult, error) {
	sh := c.shard(key)
	res, fl, leader := sh.acquire(key, gen)
	if fl == nil {
		return res, nil
	}
	if !leader {
		select {
		case <-fl.done:
			return cacheResult{status: fl.status, body: fl.body, hit: true}, nil
		case <-ctx.Done():
			return cacheResult{}, ctx.Err()
		}
	}
	fl.status, fl.body = fill()
	close(fl.done)
	sh.settle(key, fl, c.ttl)
	return cacheResult{status: fl.status, body: fl.body, hit: false}, nil
}

// acquire resolves key under the shard lock for the generation current
// at admission: a live entry filled for it (fl == nil), an in-progress
// flight for it to follow (leader == false), or a freshly registered
// flight this caller must fill (leader == true). An entry for any other
// incarnation or generation, or past its TTL, is deleted here.
func (sh *cacheShard) acquire(key string, gen *atomic.Uint64) (cacheResult, *flight, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v := validity{route: gen, gen: gen.Load()}
	if e, ok := sh.entries[key]; ok {
		if e.validity == v && time.Now().Before(e.exp) {
			return cacheResult{status: e.status, body: e.body, hit: true}, nil, false
		}
		delete(sh.entries, key)
	}
	if fl, ok := sh.flights[key]; ok && fl.validity == v {
		return cacheResult{}, fl, false
	}
	fl := &flight{validity: v, done: make(chan struct{})}
	sh.flights[key] = fl
	return cacheResult{}, fl, true
}

// settle retires a completed flight (unless a flight admitted under a
// later generation or another route has replaced it) and stores its response when it is cacheable: status
// 200, a positive TTL, and no invalidation since admission, so a read
// that raced a write is never stored.
func (sh *cacheShard) settle(key string, fl *flight, ttl time.Duration) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.flights[key] == fl {
		delete(sh.flights, key)
	}
	if fl.status != 200 || ttl <= 0 || !fl.current() {
		return
	}
	now := time.Now()
	if len(sh.entries) >= shardSweepLimit {
		for k, e := range sh.entries {
			if !now.Before(e.exp) || !e.current() {
				delete(sh.entries, k)
			}
		}
		if len(sh.entries) >= shardSweepLimit {
			return // still full of live entries: let this one go
		}
	}
	sh.entries[key] = cacheEntry{validity: fl.validity, status: fl.status, body: fl.body, exp: now.Add(ttl)}
}
