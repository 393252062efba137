package gateway

// BenchmarkGatewayRPS drives the full HTTP→JSON→CDR→IIOP→backend path
// at increasing client concurrency, uncached (every request crosses to
// the backend) and cached (idempotent op, one key — steady state serves
// from the sharded response cache). The backend's 15ms service time is
// what makes the cached/uncached ratio mean anything (DESIGN.md §15.3).
// The benchmark suite's gw_uncached and gw_mix_open workloads carry the
// end-to-end numbers; TestHandlerAllocBudget holds the per-request
// allocation ceilings.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"corbalc/internal/race"
)

func benchGatewayRPS(b *testing.B, callers int, cached bool) {
	ttl := time.Duration(-1)
	if cached {
		ttl = time.Hour
	}
	tg := startGateway(b, Options{CacheTTL: ttl, MaxInFlight: 4 * callers})

	tr := &http.Transport{MaxIdleConns: callers + 8, MaxIdleConnsPerHost: callers + 8}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	// slow_echo models a backend with real service time (15ms): the
	// uncached path pays it on every request, the cached path only on
	// the fill, which is precisely the trade the response cache exists
	// for. Sleep-bound rather than CPU-bound, so the uncached floor is
	// stable across core counts.
	url := tg.ts.URL + "/obj/calc/slow_echo"

	call := func() error {
		resp, err := client.Post(url, "application/json", strings.NewReader(`["bench", 15]`))
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != 200 || !strings.Contains(string(raw), `"result":"bench"`) {
			return fmt.Errorf("status %d body %q", resp.StatusCode, raw)
		}
		return nil
	}
	// Warm the path: dial stripes, prime the cache, fill pools.
	for i := 0; i < 16; i++ {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	errs := make(chan error, callers)
	done := make(chan struct{})
	work := make(chan struct{}, callers)
	for g := 0; g < callers; g++ {
		go func() {
			for range work {
				if err := call(); err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < b.N; i++ {
		work <- struct{}{}
	}
	close(work)
	for g := 0; g < callers; g++ {
		<-done
	}
	elapsed := time.Since(start)
	b.StopTimer()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "rps")
}

func BenchmarkGatewayRPS(b *testing.B) {
	for _, mode := range []struct {
		name   string
		cached bool
	}{{"uncached", false}, {"cached", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for _, c := range []int{1, 8, 64, 256} {
				b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
					benchGatewayRPS(b, c, mode.cached)
				})
			}
		})
	}
}

// TestHandlerAllocBudget holds one POST through Handler().ServeHTTP,
// request and recorder included, to 200 allocations uncached and 170
// served from the response cache, so JSON↔CDR translation stays pooled.
// The ceilings were recorded against BenchmarkGatewayRPS at C=64, whose
// real HTTP client and server measured 136 and 115; without them, this
// test measured 62 and 41 when it was written.
func TestHandlerAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool randomly drops items under the race detector; alloc counts are not stable")
	}
	for _, tc := range []struct {
		name   string
		ttl    time.Duration
		budget float64
	}{{"uncached", -1, 200}, {"cached", time.Hour, 170}} {
		h := startGateway(t, Options{CacheTTL: tc.ttl}).gw.Handler()
		post := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/obj/calc/slow_echo", strings.NewReader(`["bench", 0]`)))
			if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"result":"bench"`) {
				t.Fatalf("%s: status %d body %q", tc.name, rec.Code, rec.Body)
			}
		}
		for i := 0; i < 16; i++ { // dial stripes, prime the cache, fill pools
			post()
		}
		if allocs := testing.AllocsPerRun(200, post); allocs > tc.budget {
			t.Errorf("%s: %.0f allocs per request, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}
