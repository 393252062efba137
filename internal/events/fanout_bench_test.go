package events

// High-fan-out benchmark: one publisher, N subscribers, measuring
// delivered events per second (each push counts once per subscriber) —
// the "100k+ subscriber fan-out" target of DESIGN.md §12. The benchmark
// suite's events_fanout workload carries the end-to-end number;
// TestPushZeroAlloc holds the publish path to zero allocations and
// TestDeliveryZeroAlloc the delivery loops.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"corbalc/internal/leak"
	"corbalc/internal/race"
)

func benchmarkFanOut(b *testing.B, subs int) {
	ch := NewChannelConfig("IDL:bench/E:1.0", Config{Depth: 256, Policy: Block})
	defer ch.Close()

	var delivered atomic.Int64
	for i := 0; i < subs; i++ {
		defer ch.SubscribeBatch("s", func(batch []Event) {
			delivered.Add(int64(len(batch)))
		})()
	}

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	ev := Event{Source: "bench", Data: []byte("payload")}
	for i := 0; i < b.N; i++ {
		if err := ch.Push(ev); err != nil {
			b.Fatal(err)
		}
	}
	// The fan-out isn't done until every subscriber drained its queue.
	want := int64(b.N) * int64(subs)
	for delivered.Load() < want {
		time.Sleep(50 * time.Microsecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(want)/elapsed.Seconds(), "events/s")
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/push-fanout")
}

func BenchmarkEventFanout(b *testing.B) {
	for _, subs := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			benchmarkFanOut(b, subs)
		})
	}
}

// TestPushZeroAlloc holds a Push to a lossless (Block) channel with 100
// batch subscribers at zero allocations: the shared ring and the cursors
// are reused, and a publisher waiting for room parks on a condition
// variable. It measured 0 allocs/op at 100, 1000 and 10,000 subscribers
// when recorded. The warm-up holds every subscriber in its first
// callback while a full depth is published, which grows the ring to
// Depth slots; each loop then drains at least 255 events. The one
// re-home left, to nextPow2(Depth+DefaultMaxBatch) slots, is a single
// allocation against the 1000 measured pushes.
func TestPushZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool randomly drops items under the race detector; alloc counts are not stable")
	}
	leak.Check(t)
	const subs, depth = 100, 256
	ch := NewChannelConfig("IDL:test/E:1.0", Config{Depth: depth, Policy: Block})
	defer ch.Close()
	release, open := gate()
	var delivered atomic.Int64
	for i := 0; i < subs; i++ {
		defer ch.SubscribeBatch("s", func(batch []Event) {
			<-release
			delivered.Add(int64(len(batch)))
		})()
	}
	defer open()
	ev := Event{Source: "alloc", Data: []byte("payload")}
	var pushed int64
	push := func() {
		if err := ch.Push(ev); err != nil {
			t.Fatal(err)
		}
		pushed++
	}
	drained := func() {
		deadline := time.Now().Add(10 * time.Second)
		for delivered.Load() < pushed*subs {
			if time.Now().After(deadline) {
				t.Fatalf("delivered %d of %d events", delivered.Load(), pushed*subs)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < depth; i++ { // never blocks: no cursor is a full depth behind
		push()
	}
	if ring := ringLen(ch); ring != depth {
		t.Fatalf("warm-up left a %d-slot ring, want %d", ring, depth)
	}
	open()
	drained()
	if allocs := testing.AllocsPerRun(1000, push); allocs != 0 {
		t.Errorf("Push to %d subscribers allocates %.1f times, want 0", subs, allocs)
	}
	drained()
}

// TestDeliveryZeroAlloc holds delivery to zero allocations once the ring
// has reached its length: a loop hands its consumer a view of the ring,
// with no batch of its own to grow or clear. Each measured run publishes
// a burst and waits until every subscriber, per-event and batch, has
// handled it.
func TestDeliveryZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations of its own")
	}
	leak.Check(t)
	const subs, burst = 8, 16
	ch := NewChannelConfig("IDL:test/E:1.0", Config{Depth: 64, Policy: Block})
	defer ch.Close()
	var handled atomic.Int64
	for i := 0; i < subs; i++ {
		if i%2 == 0 {
			defer ch.Subscribe("s", func(Event) { handled.Add(1) })()
		} else {
			defer ch.SubscribeBatch("s", func(batch []Event) { handled.Add(int64(len(batch))) })()
		}
	}
	ev := Event{Source: "alloc", Data: []byte("payload")}
	var want int64
	pass := func() {
		for range burst {
			if err := ch.Push(ev); err != nil {
				t.Fatal(err)
			}
		}
		want += burst * subs
		for handled.Load() < want {
			runtime.Gosched()
		}
	}
	for range 64 {
		pass()
	}
	if allocs := testing.AllocsPerRun(200, pass); allocs != 0 {
		t.Errorf("publishing and delivering a %d-event burst to %d subscribers allocates %.1f times, want 0", burst, subs, allocs)
	}
}
