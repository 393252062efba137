package events

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corbalc/internal/leak"
)

func collect(ch *Channel, name string, into *[]Event, mu *sync.Mutex, wg *sync.WaitGroup) func() {
	return ch.Subscribe(name, func(ev Event) {
		mu.Lock()
		*into = append(*into, ev)
		mu.Unlock()
		if wg != nil {
			wg.Done()
		}
	})
}

func TestPushDeliversInOrder(t *testing.T) {
	leak.Check(t)
	ch := NewChannel("IDL:test/E:1.0", 64, Block)
	defer ch.Close()
	var got []Event
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(10)
	cancel := collect(ch, "sub", &got, &mu, &wg)
	defer cancel()

	for i := 0; i < 10; i++ {
		if err := ch.Push(Event{Source: "src", Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 10 {
		t.Fatalf("delivered = %d", len(got))
	}
	for i, ev := range got {
		if ev.Data[0] != byte(i) {
			t.Fatalf("out of order at %d: %v", i, ev.Data)
		}
		if ev.TypeID != "IDL:test/E:1.0" || ev.Seq != uint64(i+1) {
			t.Fatalf("stamping wrong: %+v", ev)
		}
	}
}

func TestFanOutToManySubscribers(t *testing.T) {
	leak.Check(t)
	ch := NewChannel("IDL:test/E:1.0", 16, Block)
	defer ch.Close()
	const subs = 8
	var count atomic.Int64
	var wg sync.WaitGroup
	wg.Add(subs * 5)
	for i := 0; i < subs; i++ {
		defer ch.Subscribe("s", func(Event) { count.Add(1); wg.Done() })()
	}
	if ch.SubscriberCount() != subs {
		t.Fatalf("subscribers = %d", ch.SubscriberCount())
	}
	for i := 0; i < 5; i++ {
		if err := ch.Push(Event{}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if count.Load() != subs*5 {
		t.Fatalf("deliveries = %d", count.Load())
	}
	pub, del, drop := ch.Stats()
	if pub != 5 || del != subs*5 || drop != 0 {
		t.Fatalf("stats = %d %d %d", pub, del, drop)
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	leak.Check(t)
	ch := NewChannel("e", 16, Block)
	defer ch.Close()
	var n atomic.Int64
	cancel := ch.Subscribe("s", func(Event) { n.Add(1) })
	_ = ch.Push(Event{})
	deadline := time.Now().Add(time.Second)
	for n.Load() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	cancel() // idempotent
	_ = ch.Push(Event{})
	time.Sleep(10 * time.Millisecond)
	if n.Load() != 1 {
		t.Fatalf("events after cancel: %d", n.Load())
	}
}

// TestDropOldestOverflow overflows a one-subscriber queue twice under
// each drop policy: DropOldest displaces the queued events 1 and 2,
// DropNewest refuses the pushed events 3 and 4. Either way the two drops
// are counted, and the ledger delivered + dropped = published ×
// subscribers balances — overflow is an accounted policy, not silent loss.
func TestDropOldestOverflow(t *testing.T) {
	for _, tc := range []struct {
		policy OverflowPolicy
		name   string
		want   []byte
	}{
		{DropOldest, "DropOldest", []byte{0, 3, 4}},
		{DropNewest, "DropNewest", []byte{0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leak.Check(t)
			ch := NewChannel("e", 2, tc.policy)
			defer ch.Close()
			release := make(chan struct{})
			var got []byte
			var mu sync.Mutex
			done := make(chan struct{}, 16)
			ch.Subscribe("slow", func(ev Event) {
				<-release
				mu.Lock()
				got = append(got, ev.Data[0])
				mu.Unlock()
				done <- struct{}{}
			})
			// First event is picked up by the delivery loop and blocks on
			// release; give the loop a moment so the queue is empty again.
			_ = ch.Push(Event{Data: []byte{0}})
			time.Sleep(20 * time.Millisecond)
			// Fill the queue (capacity 2) and overflow it twice.
			for i := 1; i <= 4; i++ {
				_ = ch.Push(Event{Data: []byte{byte(i)}})
			}
			close(release)
			deadline := time.After(2 * time.Second)
			for i := 0; i < len(tc.want); i++ {
				select {
				case <-done:
				case <-deadline:
					t.Fatal("timed out")
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if string(got) != string(tc.want) {
				t.Fatalf("got = %v, want %v", got, tc.want)
			}
			if got := ch.Dropped(); got != 2 {
				t.Fatalf("dropped = %d, want 2", got)
			}
			const subscribers = 1
			pub, del, drop := ch.Stats()
			if pub != 5 || del != 3 {
				t.Fatalf("stats = %d published, %d delivered; want 5, 3", pub, del)
			}
			if del+drop != pub*subscribers {
				t.Fatalf("ledger: %d delivered + %d dropped != %d published × %d subscribers", del, drop, pub, subscribers)
			}
		})
	}
}

func TestBlockingBackpressure(t *testing.T) {
	leak.Check(t)
	ch := NewChannel("e", 1, Block)
	defer ch.Close()
	release := make(chan struct{})
	var delivered atomic.Int64
	ch.Subscribe("slow", func(Event) {
		<-release
		delivered.Add(1)
	})
	_ = ch.Push(Event{}) // taken by delivery loop, blocks in consumer
	time.Sleep(10 * time.Millisecond)
	_ = ch.Push(Event{}) // fills the queue

	pushed := make(chan struct{})
	go func() {
		_ = ch.Push(Event{}) // must block until consumer drains
		close(pushed)
	}()
	select {
	case <-pushed:
		t.Fatal("push did not block on full queue")
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	select {
	case <-pushed:
	case <-time.After(2 * time.Second):
		t.Fatal("push never unblocked")
	}
	deadline := time.Now().Add(time.Second)
	for delivered.Load() != 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() != 3 {
		t.Fatalf("delivered = %d", delivered.Load())
	}
}

func TestClosedChannelRejectsPush(t *testing.T) {
	leak.Check(t)
	ch := NewChannel("e", 4, Block)
	ch.Close()
	if err := ch.Push(Event{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	// Subscribing after close is a no-op.
	cancel := ch.Subscribe("s", func(Event) { t.Error("delivered on closed channel") })
	cancel()
	ch.Close() // idempotent
}

func TestHubChannelPerKind(t *testing.T) {
	leak.Check(t)
	h := NewHub(8, Block)
	defer h.Close()
	a := h.Channel("IDL:a:1.0")
	b := h.Channel("IDL:b:1.0")
	if a == b {
		t.Fatal("kinds share a channel")
	}
	if h.Channel("IDL:a:1.0") != a {
		t.Fatal("channel not cached")
	}
	kinds := h.Kinds()
	if len(kinds) != 2 {
		t.Fatalf("kinds = %v", kinds)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	a.Subscribe("s", func(ev Event) {
		if ev.TypeID != "IDL:a:1.0" {
			t.Errorf("cross-kind delivery: %+v", ev)
		}
		wg.Done()
	})
	_ = a.Push(Event{})
	_ = b.Push(Event{})
	wg.Wait()
}

func TestConcurrentPublishers(t *testing.T) {
	leak.Check(t)
	ch := NewChannel("e", 256, Block)
	defer ch.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	const total = 16 * 100
	wg.Add(total)
	ch.Subscribe("s", func(Event) { n.Add(1); wg.Done() })
	var pubs sync.WaitGroup
	for p := 0; p < 16; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < 100; i++ {
				if err := ch.Push(Event{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	pubs.Wait()
	wg.Wait()
	if n.Load() != total {
		t.Fatalf("delivered = %d", n.Load())
	}
	// Sequence numbers must be unique and dense.
	pub, _, _ := ch.Stats()
	if pub != total {
		t.Fatalf("published = %d", pub)
	}
}

func BenchmarkPushOneSubscriber(b *testing.B) {
	ch := NewChannel("e", 1024, DropOldest)
	defer ch.Close()
	ch.Subscribe("s", func(Event) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ch.Push(Event{Data: []byte("payload")})
	}
}

func BenchmarkPushFanOut8(b *testing.B) {
	ch := NewChannel("e", 1024, DropOldest)
	defer ch.Close()
	for i := 0; i < 8; i++ {
		ch.Subscribe("s", func(Event) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ch.Push(Event{Data: []byte("payload")})
	}
}
