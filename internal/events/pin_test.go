//go:build go1.24

package events

// The weak package arrived in Go 1.24, after this module's go line.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"corbalc/internal/leak"
)

// TestDrainedChannelPinsNothing publishes fresh payloads through a
// 1-subscriber and a 64-subscriber channel and, once every subscriber has
// taken them, requires every payload to be collectable. The grown cases
// first park every subscriber in its first callback (MaxBatch 1, so each
// has taken one event) while the payloads pile up, which grows the ring
// from 8 slots to 64: moving the backlog must not leave a payload pinned
// by a slot of either ring.
func TestDrainedChannelPinsNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		subs  int
		grown bool
	}{
		{"subs=1", 1, false},
		{"subs=64", 64, false},
		{"grown,subs=1", 1, true},
		{"grown,subs=64", 64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leak.Check(t)
			cfg := Config{Depth: 16, Policy: Block}
			if tc.grown {
				cfg = Config{Depth: 64, Policy: Block, MaxBatch: 1}
			}
			ch := NewChannelConfig("e", cfg)
			defer ch.Close()
			release, open := gate()
			if !tc.grown {
				open()
			}
			var got, entered atomic.Int64
			for i := 0; i < tc.subs; i++ {
				defer ch.Subscribe("s", func(Event) {
					entered.Add(1)
					<-release
					got.Add(1)
				})()
			}
			defer open()
			owed := int64(0)
			if tc.grown {
				if err := ch.Push(Event{}); err != nil {
					t.Fatal(err)
				}
				owed = int64(tc.subs)
				for entered.Load() < int64(tc.subs) {
					time.Sleep(time.Millisecond)
				}
			}
			const events = 40
			var refs []weak.Pointer[[64]byte]
			for i := 0; i < events; i++ {
				p := new([64]byte) // above the tiny allocator, which frees 16-byte blocks whole
				refs = append(refs, weak.Make(p))
				if err := ch.Push(Event{Data: p[:]}); err != nil {
					t.Fatal(err)
				}
			}
			if ring := ringLen(ch); tc.grown && ring < 4*initialRing {
				t.Fatalf("the parked backlog grew the ring only to %d slots", ring)
			}
			open()
			owed += events * int64(tc.subs)
			deadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				live := 0
				for _, r := range refs {
					if r.Value() != nil {
						live++
					}
				}
				if live == 0 && got.Load() == owed {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d payloads still reachable after %d of %d deliveries", live, events, got.Load(), owed)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
