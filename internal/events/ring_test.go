package events

// Tests for the shared ring's edges: a publisher blocked on a stuck
// consumer is released by cancel and by Close, concurrent publishers and
// churning subscribers never read a slot mid-overwrite and keep the
// delivered + dropped ledger, a channel nobody subscribed to has no
// ring, and a ring grows only as far as its backlog asks, never losing,
// reordering or copying a payload on the way.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corbalc/internal/leak"
)

// TestBlockedPublisherReleased parks a publisher on a full Block queue
// whose consumer is stuck in its callback, then releases it with cancel
// (the push lands with no subscriber left) or with Close (the push is
// refused), within a second either way.
func TestBlockedPublisherReleased(t *testing.T) {
	var closing sync.WaitGroup
	for _, tc := range []struct {
		name      string
		release   func(ch *Channel, cancel func())
		want      error
		published uint64
	}{
		{"cancel", func(_ *Channel, cancel func()) { cancel() }, nil, 3},
		{"Close", func(ch *Channel, _ func()) {
			closing.Add(1)
			go func() { defer closing.Done(); ch.Close() }()
		}, ErrClosed, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leak.Check(t)
			ch := NewChannel("e", 1, Block)
			stuck := make(chan struct{})
			took := make(chan struct{}, 1)
			cancel := ch.Subscribe("stuck", func(Event) {
				took <- struct{}{}
				<-stuck
			})
			_ = ch.Push(Event{}) // taken; the consumer sticks on it
			<-took
			_ = ch.Push(Event{}) // fills the queue
			pushed := make(chan error, 1)
			go func() { pushed <- ch.Push(Event{}) }()
			select {
			case err := <-pushed:
				t.Fatalf("push did not block on a full queue: %v", err)
			case <-time.After(30 * time.Millisecond):
			}
			tc.release(ch, cancel)
			select {
			case err := <-pushed:
				if !errors.Is(err, tc.want) {
					t.Fatalf("released push: err = %v, want %v", err, tc.want)
				}
			case <-time.After(time.Second):
				t.Fatal("blocked publisher not released")
			}
			close(stuck)
			ch.Close()
			closing.Wait()
			cancel()
			// The stuck event was delivered; the queued one was delivered
			// by the drain after Close, or dropped by cancel.
			if pub, del, drop := ch.Stats(); pub != tc.published || del+drop != 2 {
				t.Fatalf("stats = %d published, %d delivered, %d dropped; want %d published, 2 owed", pub, del, drop, tc.published)
			}
		})
	}
}

// stressPayload is what publisher p writes as its i-th event: a value and
// its checksum, so a consumer that read a slot mid-overwrite would see a
// pair that does not match.
func stressPayload(p, i int) []byte {
	b := make([]byte, 16)
	v := uint64(p)<<32 | uint64(i)
	binary.LittleEndian.PutUint64(b, v)
	binary.LittleEndian.PutUint64(b[8:], v*0x9e3779b97f4a7c15^0xa5a5a5a5a5a5a5a5)
	return b
}

var stressSources = [8]string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}

// stressSub records what one subscriber saw.
type stressSub struct {
	last, n uint64
	bad     string
	owed    uint64 // events published while it was attached
}

func (r *stressSub) see(block bool, ev Event) {
	var v uint64
	if len(ev.Data) == 16 {
		v = binary.LittleEndian.Uint64(ev.Data)
	}
	switch {
	case ev.TypeID != "IDL:stress:1.0" || len(ev.Data) != 16:
		r.bad = fmt.Sprintf("malformed event %+v", ev)
	case binary.LittleEndian.Uint64(ev.Data[8:]) != v*0x9e3779b97f4a7c15^0xa5a5a5a5a5a5a5a5 ||
		v>>32 >= uint64(len(stressSources)) || stressSources[v>>32] != ev.Source:
		r.bad = fmt.Sprintf("torn event at seq %d: %+v", ev.Seq, ev)
	case ev.Seq <= r.last:
		r.bad = fmt.Sprintf("seq %d after %d", ev.Seq, r.last)
	case block && r.n > 0 && ev.Seq != r.last+1:
		r.bad = fmt.Sprintf("gap under Block: seq %d after %d", ev.Seq, r.last)
	}
	r.last = ev.Seq
	r.n++
}

// TestRingStress runs 8 publishers against 32 subscribers — half per
// event, half batch; half for the whole storm, half attaching and
// cancelling mid-storm — under both policies. Every subscriber sees
// strictly increasing Seq (gap-free under Block), every payload matches
// its checksum, and delivered + dropped equals the events owed.
func TestRingStress(t *testing.T) {
	const publishers, perPublisher, subs, churns = 8, 400, 32, 6
	for _, policy := range []OverflowPolicy{Block, DropOldest} {
		t.Run(policyNames[policy], func(t *testing.T) {
			leak.Check(t)
			block := policy == Block
			ch := NewChannelConfig("IDL:stress:1.0", Config{Depth: 8, Policy: policy, maxBatch: 4})
			// Publishers hold pause for reading across each Push; churn
			// takes it for writing, so an attach or a cancel falls between
			// publications and its share of the ledger is exact.
			var pause sync.RWMutex
			var all []*stressSub
			subscribe := func(i int) (*stressSub, func()) {
				r := &stressSub{}
				all = append(all, r)
				slow := !block && i%4 == 3
				if i%2 == 0 {
					return r, ch.Subscribe(fmt.Sprint(i), func(ev Event) {
						r.see(block, ev)
						if slow && r.n%16 == 0 {
							time.Sleep(50 * time.Microsecond)
						}
					})
				}
				return r, ch.SubscribeBatch(fmt.Sprint(i), func(batch []Event) {
					for _, ev := range batch {
						r.see(block, ev)
					}
					if slow {
						runtime.Gosched()
					}
				})
			}
			var cancels []func()
			for i := 0; i < subs/2; i++ {
				_, cancel := subscribe(i)
				cancels = append(cancels, cancel)
			}
			var pubs, churn sync.WaitGroup
			stop := make(chan struct{})
			for p := 0; p < publishers; p++ {
				pubs.Add(1)
				go func() {
					defer pubs.Done()
					for i := 0; i < perPublisher; i++ {
						pause.RLock()
						err := ch.Push(Event{Source: stressSources[p], Data: stressPayload(p, i)})
						pause.RUnlock()
						if i%4 == 0 {
							runtime.Gosched() // let consumers keep up some of the time
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			for i := subs / 2; i < subs; i++ {
				churn.Add(1)
				go func() {
					defer churn.Done()
					for k := 0; k < churns; k++ {
						pause.Lock()
						r, cancel := subscribe(i)
						start, _, _ := ch.Stats()
						pause.Unlock()
						select {
						case <-stop:
						case <-time.After(time.Duration(100+i*37%400) * time.Microsecond):
						}
						pause.Lock()
						cancel()
						end, _, _ := ch.Stats()
						r.owed = end - start
						pause.Unlock()
					}
				}()
			}
			pubs.Wait()
			close(stop)
			churn.Wait()
			ch.Close()
			for _, cancel := range cancels {
				cancel()
			}

			published, delivered, dropped := ch.Stats()
			if published != publishers*perPublisher {
				t.Fatalf("published = %d, want %d", published, publishers*perPublisher)
			}
			var seen, owed uint64
			for _, r := range all[:subs/2] {
				r.owed = published
			}
			for _, r := range all {
				if r.bad != "" {
					t.Fatal(r.bad)
				}
				seen += r.n
				owed += r.owed
			}
			if delivered != seen {
				t.Fatalf("delivered = %d, consumers saw %d", delivered, seen)
			}
			if delivered+dropped != owed {
				t.Fatalf("ledger: %d delivered + %d dropped != %d owed", delivered, dropped, owed)
			}
			if block {
				for _, r := range all[:subs/2] {
					if r.n != published {
						t.Fatalf("a whole-storm subscriber saw %d of %d events under Block", r.n, published)
					}
				}
			}
		})
	}
}

// TestIdleChannelHasNoRing holds a channel nobody subscribed to at zero
// cost: the hub's lookup and a Push write nothing, not even a ring.
func TestIdleChannelHasNoRing(t *testing.T) {
	h := NewHubConfig(Config{Depth: 256, Policy: Block})
	defer h.Close()
	ch := h.Channel("IDL:idle:1.0")
	if err := ch.Push(Event{Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.ring != nil {
		t.Fatalf("a channel with no subscriber allocated a %d-slot ring", len(ch.ring))
	}
}

var policyNames = map[OverflowPolicy]string{Block: "Block", DropOldest: "DropOldest"}

// gate returns a channel callbacks can park on and its opener. The opener
// is idempotent, so a test also defers it: a failure before the test opens
// the gate must not leave a loop parked in a callback that Close waits on.
func gate() (<-chan struct{}, func()) {
	c := make(chan struct{})
	var once sync.Once
	return c, func() { once.Do(func() { close(c) }) }
}

// ringLen reads ch's ring length under the publisher lock.
func ringLen(ch *Channel) int {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return len(ch.ring)
}

// TestRingGrowthCount holds a channel's ring to at most
// log2(nextPow2(Depth)/8) growths over its life. A subscriber parked in
// its first callback (maxBatch 1, so its cursor stays at 1) lets a full
// depth pile up, which drives the ring to its full length; a long
// free-running tail after that grows it no further.
func TestRingGrowthCount(t *testing.T) {
	for _, depth := range []int{1, 5, 8, 9, 100, 128, 256} {
		for _, policy := range []OverflowPolicy{Block, DropOldest} {
			t.Run(fmt.Sprintf("depth=%d/%s", depth, policyNames[policy]), func(t *testing.T) {
				leak.Check(t)
				ch := NewChannelConfig("e", Config{Depth: depth, Policy: policy, maxBatch: 1})
				defer ch.Close()
				release, open := gate()
				entered := make(chan struct{}, 1)
				defer ch.Subscribe("stuck", func(Event) {
					select {
					case entered <- struct{}{}:
					default:
					}
					<-release
				})()
				defer open()
				full := 1 << bits.Len(uint(depth-1))
				want := bits.Len(uint(full)) - bits.Len(uint(min(initialRing, full)))
				rings := map[*Event]bool{}
				push := func() {
					if err := ch.Push(Event{}); err != nil {
						t.Fatal(err)
					}
					ch.mu.Lock()
					rings[&ch.ring[0]] = true
					ch.mu.Unlock()
				}
				push()
				<-entered
				for i := 0; i < depth; i++ { // the last lands depth-1 behind
					push()
				}
				if got := ringLen(ch); got != full {
					t.Fatalf("a full depth of backlog left a %d-slot ring, want %d", got, full)
				}
				open()
				for i := 0; i < 20*depth; i++ {
					push()
					if i%8 == 0 {
						runtime.Gosched()
					}
				}
				if grew := len(rings) - 1; grew != want {
					t.Fatalf("ring grew %d times, want %d (8 -> %d slots)", grew, want, full)
				}
			})
		}
	}
}

// growthSub checks that one subscriber sees every event once, in order,
// as the very payload that was published.
type growthSub struct {
	next uint64
	bad  string
}

func (g *growthSub) see(ev Event, payloads [][]byte) {
	switch {
	case g.bad != "":
	case ev.Seq != g.next+1:
		g.bad = fmt.Sprintf("seq %d after %d", ev.Seq, g.next)
	case &ev.Data[0] != &payloads[ev.Seq-1][0]:
		g.bad = fmt.Sprintf("seq %d carries a payload other than the one published", ev.Seq)
	}
	g.next = ev.Seq
}

// TestRingGrowsUnderConcurrentTake grows the ring while delivery loops
// take from it, under both policies, with 1 and 64 subscribers (half per
// event, half batch). Every subscriber parks inside its callback at event
// parkAt until 300 more are queued, which grows the ring past 128 slots
// while every loop is live; the rest of the storm grows it further as
// the loops catch up. No cursor ever falls a full depth behind, so even
// DropOldest loses nothing: every subscriber sees a gap-free sequence of
// the very payloads that were published.
func TestRingGrowsUnderConcurrentTake(t *testing.T) {
	const depth, parkAt = 1024, 100
	for _, policy := range []OverflowPolicy{Block, DropOldest} {
		for _, subs := range []int{1, 64} {
			t.Run(fmt.Sprintf("%s/subs=%d", policyNames[policy], subs), func(t *testing.T) {
				leak.Check(t)
				total := depth // DropOldest: never a full depth behind, so never a drop
				if policy == Block {
					total = 3 * depth
				}
				payloads := make([][]byte, total)
				for i := range payloads {
					payloads[i] = []byte{byte(i), byte(i >> 8)}
				}
				ch := NewChannelConfig("e", Config{Depth: depth, Policy: policy})
				defer ch.Close()
				release, open := gate()
				seen := make([]*growthSub, subs)
				for i := range seen {
					g := &growthSub{}
					seen[i] = g
					if i%2 == 0 {
						defer ch.Subscribe("s", func(ev Event) {
							g.see(ev, payloads)
							if ev.Seq == parkAt {
								<-release
							}
						})()
						continue
					}
					defer ch.SubscribeBatch("s", func(batch []Event) {
						for _, ev := range batch {
							g.see(ev, payloads)
						}
						if batch[0].Seq <= parkAt && parkAt <= batch[len(batch)-1].Seq {
							<-release
						}
					})()
				}
				defer open()
				for i := range payloads {
					if err := ch.Push(Event{Data: payloads[i]}); err != nil {
						t.Fatal(err)
					}
					if i == parkAt+300 {
						if got := ringLen(ch); got < 256 {
							t.Fatalf("300 events queued behind parked loops left a %d-slot ring", got)
						}
						open()
					}
				}
				ch.Close()
				for _, g := range seen {
					if g.bad != "" {
						t.Fatal(g.bad)
					}
					if g.next != uint64(total) {
						t.Fatalf("a subscriber saw %d of %d events", g.next, total)
					}
				}
				if pub, del, drop := ch.Stats(); pub != uint64(total) || del != uint64(total*subs) || drop != 0 {
					t.Fatalf("stats = %d published, %d delivered, %d dropped; want %d, %d, 0", pub, del, drop, total, total*subs)
				}
			})
		}
	}
}

// TestGossipRingStaysSmall runs a gossip-plane-shaped channel — depth
// 128, DropOldest, one prompt batch subscriber — through 10,000 pushes
// in bursts of one to seven, each drained before the next: the backlog
// never reaches eight, so neither the ring nor a batch outgrows it.
func TestGossipRingStaysSmall(t *testing.T) {
	leak.Check(t)
	ch := NewChannelConfig("e", Config{Depth: 128, Policy: DropOldest})
	defer ch.Close()
	var delivered atomic.Int64
	var largest atomic.Int64 // the delivery loop's batch capacity
	defer ch.SubscribeBatch("gossip", func(batch []Event) {
		if n := int64(cap(batch)); n > largest.Load() {
			largest.Store(n)
		}
		delivered.Add(int64(len(batch)))
	})()
	for pushed := 0; pushed < 10000; {
		for burst := 1 + pushed%7; burst > 0; burst-- {
			if err := ch.Push(Event{Data: []byte("delta")}); err != nil {
				t.Fatal(err)
			}
			pushed++
		}
		deadline := time.Now().Add(5 * time.Second)
		for delivered.Load() < int64(pushed) {
			if time.Now().After(deadline) {
				t.Fatalf("delivered %d of %d", delivered.Load(), pushed)
			}
			runtime.Gosched()
		}
	}
	if got := ringLen(ch); got != initialRing {
		t.Fatalf("ring grew to %d slots under a backlog below %d", got, initialRing)
	}
	if largest.Load() > initialRing || ch.Dropped() != 0 {
		t.Fatalf("a %d-slot batch, %d dropped", largest.Load(), ch.Dropped())
	}
}
