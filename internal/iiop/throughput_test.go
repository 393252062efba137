package iiop

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/orb"
	"corbalc/internal/race"
)

func benchThroughput(b *testing.B, callers int, tr *Transport) {
	serverORB, _ := startServer(b, "calc", calcServant{})
	client := orb.NewORB()
	client.RegisterTransport(tr)
	defer client.Shutdown()
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	square := func(n int32) error {
		var sq int32
		err := ref.InvokeContext(context.Background(), "square",
			func(e *cdr.Encoder) { e.WriteLong(n) },
			func(d *cdr.Decoder) error {
				var err error
				sq, err = d.ReadLong()
				return err
			})
		if err == nil && sq != n*n {
			return fmt.Errorf("square(%d) = %d: cross-caller corruption", n, sq)
		}
		return err
	}
	// Warm the path: dial every stripe once.
	for i := 0; i < 8; i++ {
		if err := square(3); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	el, err := fanIn(callers, b.N, func(g int) error { return square(int32(g%100 + 2)) })
	if err != nil {
		b.Fatal(err)
	}
	if sec := el.Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "calls/s")
	}
}

// fanIn makes total calls split evenly across callers goroutines (call
// receives the caller's index) and reports how long they took, or the
// first error.
func fanIn(callers, total int, call func(g int) error) (time.Duration, error) {
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		n := total / callers
		if g < total%callers {
			n++
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := call(g); err != nil {
					errs <- err
					return
				}
			}
		}(g, n)
	}
	wg.Wait()
	el := time.Since(start)
	close(errs)
	return el, <-errs
}

// TestFanInMultipliesThroughput holds Req. 1 under load: caller fan-in
// multiplies calls/s instead of serialising on the wire. 4,000 `square`
// calls from 64 callers must finish at least twice as fast as from one.
// On one core the gain comes from write coalescing and a wire kept full,
// not from parallelism, so it holds at GOMAXPROCS=1.
func TestFanInMultipliesThroughput(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector serialises callers; throughput ratios are not stable")
	}
	serverORB, _ := startServer(t, "calc", calcServant{})
	ref := newClient(t).NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))
	square := func(int) error {
		return ref.InvokeContext(context.Background(), "square",
			func(e *cdr.Encoder) { e.WriteLong(7) },
			func(d *cdr.Decoder) error { _, err := d.ReadLong(); return err })
	}
	const total = 4000
	rate := func(callers int) float64 {
		for i := 0; i < 8; i++ { // warm dials, pools and caches
			if err := square(0); err != nil {
				t.Fatal(err)
			}
		}
		el, err := fanIn(callers, total, square)
		if err != nil {
			t.Fatal(err)
		}
		return total / el.Seconds()
	}
	c1 := rate(1)
	c64 := rate(64)
	t.Logf("C=1 %.0f calls/s, C=64 %.0f calls/s (%.2fx)", c1, c64, c64/c1)
	if c64 < 2*c1 {
		t.Errorf("C=64 = %.0f calls/s, want >= 2 x C=1 (%.0f)", c64, c1)
	}
}

func BenchmarkConcurrentTCPThroughput(b *testing.B) {
	for _, c := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			benchThroughput(b, c, &Transport{})
		})
	}
	// The baseline for the pool's share of the fan-in speedup: one
	// multiplexed connection per endpoint, coalescing window on.
	for _, c := range []int{1, 64} {
		b.Run(fmt.Sprintf("C=%d-single", c), func(b *testing.B) {
			benchThroughput(b, c, &Transport{PoolSize: -1})
		})
	}
}

// BenchmarkParallelDispatch drives the full TCP invocation path through
// b.RunParallel — one worker per GOMAXPROCS — so `go test -cpu 1,2,4,8`
// sweeps the multi-core scaling curve of the sharded hot path: COW
// registry reads, processor-affine stripe selection, per-stripe pending
// maps and coalescers. Nothing gates the curve: it needs a host with at
// least 4 cores (ROADMAP 1b). TestTCPRoundTripAllocBudget holds its
// allocations.
func BenchmarkParallelDispatch(b *testing.B) {
	serverORB, _ := startServer(b, "calc", calcServant{})

	client := orb.NewORB()
	client.RegisterTransport(&Transport{})
	defer client.Shutdown()
	ref := client.NewRef(serverORB.NewIOR("IDL:corbalc/test/Calc:1.0", "calc"))

	square := func(n int32) error {
		var sq int32
		err := ref.InvokeContext(context.Background(), "square",
			func(e *cdr.Encoder) { e.WriteLong(n) },
			func(d *cdr.Decoder) error {
				var err error
				sq, err = d.ReadLong()
				return err
			})
		if err == nil && sq != n*n {
			return fmt.Errorf("square(%d) = %d: cross-caller corruption", n, sq)
		}
		return err
	}
	// Warm the path: dial every stripe once.
	for i := 0; i < 8; i++ {
		if err := square(3); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := int32(2)
		for pb.Next() {
			if err := square(n%100 + 2); err != nil {
				b.Error(err)
				return
			}
			n++
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "calls/s")
	}
}
