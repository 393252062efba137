//go:build go1.24

package events

// The weak package arrived in Go 1.24, after this module's go line.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"corbalc/internal/leak"
)

// TestDrainedChannelPinsNothing publishes fresh payloads through a
// 1-subscriber and a 64-subscriber channel and, once every subscriber has
// taken them, requires every payload to be collectable.
func TestDrainedChannelPinsNothing(t *testing.T) {
	for _, subs := range []int{1, 64} {
		t.Run(fmt.Sprintf("subs=%d", subs), func(t *testing.T) {
			leak.Check(t)
			ch := NewChannel("e", 16, Block)
			defer ch.Close()
			var got atomic.Int64
			for i := 0; i < subs; i++ {
				defer ch.Subscribe("s", func(Event) { got.Add(1) })()
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
			deadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				live := 0
				for _, r := range refs {
					if r.Value() != nil {
						live++
					}
				}
				if live == 0 && got.Load() == events*int64(subs) {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d payloads still reachable after %d of %d deliveries", live, events, got.Load(), events*subs)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
