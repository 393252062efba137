package gateway

// Gateway failover: when the IIOP backend dies mid-storm, in-flight
// HTTP requests must resolve to clean 502/503/504 responses — never a
// hang, never a misrouted or corrupted 200 — and once the backend
// returns on the same address, the client-side channel pool redials and
// the gateway serves 200s again without being restarted.

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corbalc/internal/idl"
	"corbalc/internal/iiop"
	"corbalc/internal/leak"
	"corbalc/internal/orb"
)

func TestGatewayBackendFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test")
	}
	leak.Check(t)

	repo := idl.NewRepository()
	if err := repo.ParseString("demo.idl", demoIDL); err != nil {
		t.Fatal(err)
	}
	backend := orb.NewORB()
	srv, err := iiop.ListenAndActivate(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sv := &demoServant{}
	backend.Activate("calc", sv)
	host, port := backend.Endpoint()
	addr := fmt.Sprintf("%s:%d", host, port)

	client := orb.NewORB()
	client.RegisterTransport(&iiop.Transport{CallTimeout: 2 * time.Second})
	t.Cleanup(client.Shutdown)

	gw, err := New(Options{ORB: client, Repo: repo, CacheTTL: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.Register("calc", client.NewRef(backend.NewIOR("IDL:demo/Calc:1.0", "calc")), "demo::Calc"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	// Storm: concurrent adds with per-caller payloads so a misrouted
	// reply would produce a visibly wrong sum.
	const callers = 8
	var stop atomic.Bool
	var good, gatewayErr atomic.Int64
	var wg sync.WaitGroup
	fail := make(chan string, callers*4)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a, b := int64(c*1000), int64(c+1)
			body := fmt.Sprintf(`[%d, %d]`, a, b)
			want := fmt.Sprintf(`"result":%d`, a+b)
			for !stop.Load() {
				resp, err := ts.Client().Post(ts.URL+"/obj/calc/add", "application/json", strings.NewReader(body))
				if err != nil {
					fail <- "transport error: " + err.Error()
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case 200:
					if !strings.Contains(string(raw), want) {
						fail <- fmt.Sprintf("misrouted 200: body %q, want %s", raw, want)
						return
					}
					good.Add(1)
				case 502, 503, 504:
					gatewayErr.Add(1)
				default:
					fail <- fmt.Sprintf("unexpected status %d body %q", resp.StatusCode, raw)
					return
				}
			}
		}(c)
	}

	waitFor := func(ctr *atomic.Int64, min int64, what string) {
		deadline := time.Now().Add(10 * time.Second)
		for ctr.Load() < min {
			select {
			case msg := <-fail:
				stop.Store(true)
				wg.Wait()
				t.Fatal(msg)
			default:
			}
			if time.Now().After(deadline) {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("timed out waiting for %s (good=%d gatewayErr=%d)", what, good.Load(), gatewayErr.Load())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	waitFor(&good, 50, "steady-state successes")

	// Kill the backend under load.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(&gatewayErr, 5, "clean gateway errors after backend death")

	// Resurrect it on the same address; the pool must redial.
	goodBefore := good.Load()
	var srv2 *iiop.Server
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv2, err = iiop.ListenAndActivate(backend, addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("could not rebind backend on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Cleanup(func() { srv2.Close() })
	waitFor(&good, goodBefore+50, "recovery after backend restart")

	stop.Store(true)
	wg.Wait()

	if n := TransBufsInFlight(); n != 0 {
		t.Fatalf("TransBufsInFlight = %d after storm, want 0", n)
	}
}
