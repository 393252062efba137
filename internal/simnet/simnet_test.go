package simnet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/orb"
)

type echoServant struct{}

func (echoServant) RepositoryID() string { return "IDL:test/Echo:1.0" }
func (echoServant) InvokeContext(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	switch op {
	case "echo":
		s, err := args.ReadString()
		if err != nil {
			return err
		}
		reply.WriteString(s)
		return nil
	case "big":
		n, err := args.ReadLong()
		if err != nil {
			return err
		}
		reply.WriteOctetSeq(make([]byte, n))
		return nil
	}
	return orb.BadOperation()
}

// pair attaches two fresh ORBs to a network and returns (clientORB, a
// ref to the echo servant on the server).
func pair(t testing.TB, net *Network) (*orb.ORB, *orb.ObjectRef) {
	t.Helper()
	server := orb.NewORB()
	client := orb.NewORB()
	if err := net.Attach("server", server); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach("client", client); err != nil {
		t.Fatal(err)
	}
	ref := client.NewRef(server.Activate("echo", echoServant{}))
	return client, ref
}

func echo(t testing.TB, ref *orb.ObjectRef, s string) (string, error) {
	t.Helper()
	var got string
	err := ref.InvokeContext(context.Background(), "echo",
		func(e *cdr.Encoder) { e.WriteString(s) },
		func(d *cdr.Decoder) error { var e error; got, e = d.ReadString(); return e })
	return got, err
}

func TestBasicCallOverVirtualNetwork(t *testing.T) {
	net := New(Link{})
	_, ref := pair(t, net)
	got, err := echo(t, ref, "through the wire")
	if err != nil || got != "through the wire" {
		t.Fatalf("echo = %q, %v", got, err)
	}
	msgs, bytes := net.Totals()
	if msgs != 2 || bytes == 0 { // request + reply
		t.Fatalf("totals = %d msgs, %d bytes", msgs, bytes)
	}
	st := net.StatsOf("client")
	if st.MsgsSent != 1 || st.MsgsRecv != 1 {
		t.Fatalf("client stats = %+v", st)
	}
}

func TestLatencyApplied(t *testing.T) {
	net := New(Link{Latency: 20 * time.Millisecond})
	_, ref := pair(t, net)
	start := time.Now()
	if _, err := echo(t, ref, "x"); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 40*time.Millisecond {
		t.Fatalf("rtt = %v, want >= 40ms (two one-way 20ms hops)", rtt)
	}
}

func TestBandwidthDelaysLargePayloads(t *testing.T) {
	// 1 MB/s: a 100 KB reply should take ~100 ms; a tiny one almost 0.
	net := New(Link{BandwidthBps: 1 << 20})
	_, ref := pair(t, net)
	small := time.Now()
	if _, err := echo(t, ref, "s"); err != nil {
		t.Fatal(err)
	}
	smallT := time.Since(small)

	big := time.Now()
	err := ref.InvokeContext(context.Background(), "big",
		func(e *cdr.Encoder) { e.WriteLong(100 << 10) },
		func(d *cdr.Decoder) error { _, e := d.ReadOctetSeq(); return e })
	if err != nil {
		t.Fatal(err)
	}
	bigT := time.Since(big)
	if bigT < 80*time.Millisecond {
		t.Fatalf("big reply took %v, want >= 80ms at 1MB/s", bigT)
	}
	if smallT > bigT/2 {
		t.Fatalf("small %v vs big %v: bandwidth had no effect", smallT, bigT)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	net := New(Link{})
	_, ref := pair(t, net)
	if _, err := echo(t, ref, "x"); err != nil {
		t.Fatal(err)
	}
	net.Partition("client", "server", true)
	_, err := echo(t, ref, "x")
	var se *orb.SystemException
	if !errors.As(err, &se) {
		t.Fatalf("partitioned call err = %v", err)
	}
	net.Partition("client", "server", false)
	if _, err := echo(t, ref, "after heal"); err != nil {
		t.Fatalf("healed call: %v", err)
	}
}

func TestEndpointDownAndRecover(t *testing.T) {
	net := New(Link{})
	_, ref := pair(t, net)
	net.SetDown("server", true)
	if _, err := echo(t, ref, "x"); err == nil {
		t.Fatal("call to down endpoint succeeded")
	}
	net.SetDown("server", false)
	if _, err := echo(t, ref, "x"); err != nil {
		t.Fatalf("recovered call: %v", err)
	}
}

func TestLossIsDeterministicWithSeed(t *testing.T) {
	run := func() []bool {
		net := New(Link{Loss: 0.5})
		net.Seed(7)
		_, ref := pair(t, net)
		var outcomes []bool
		for i := 0; i < 20; i++ {
			_, err := echo(t, ref, "x")
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	var failures int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d", i)
		}
		if !a[i] {
			failures++
		}
	}
	if failures == 0 || failures == len(a) {
		t.Fatalf("loss 0.5 produced %d/%d failures", failures, len(a))
	}
}

func TestPerLinkOverride(t *testing.T) {
	net := New(Link{})
	_, ref := pair(t, net)
	net.SetLink("client", "server", Link{Latency: 30 * time.Millisecond})
	start := time.Now()
	if _, err := echo(t, ref, "x"); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	// Only the request direction is slow; reply uses the default link.
	if rtt < 30*time.Millisecond || rtt > 200*time.Millisecond {
		t.Fatalf("rtt = %v", rtt)
	}
}

func TestUnknownEndpointAndDetach(t *testing.T) {
	net := New(Link{})
	client := orb.NewORB()
	server := orb.NewORB()
	if err := net.Attach("c", client); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach("s", server); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach("c", client); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	ref := client.NewRef(server.Activate("echo", echoServant{}))
	if _, err := echo(t, ref, "x"); err != nil {
		t.Fatal(err)
	}
	net.Detach("s")
	client.Shutdown() // drop cached channel so the next call re-plans
	if _, err := echo(t, ref, "x"); err == nil {
		t.Fatal("call to detached endpoint succeeded")
	}
}

func TestConcurrentTraffic(t *testing.T) {
	net := New(Link{Latency: time.Millisecond})
	client, ref := pair(t, net)
	_ = client
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := echo(t, ref, "concurrent"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	msgs, _ := net.Totals()
	if msgs != 128 {
		t.Fatalf("msgs = %d", msgs)
	}
	net.ResetStats()
	if m, b := net.Totals(); m != 0 || b != 0 {
		t.Fatal("reset failed")
	}
}

func TestOnewayOverSimnet(t *testing.T) {
	net := New(Link{})
	server := orb.NewORB()
	client := orb.NewORB()
	_ = net.Attach("s", server)
	_ = net.Attach("c", client)
	ref := client.NewRef(server.Activate("echo", echoServant{}))
	if err := ref.InvokeOnewayContext(context.Background(), "echo", func(e *cdr.Encoder) { e.WriteString("fire and forget") }); err != nil {
		t.Fatal(err)
	}
	if server.RequestsServed() != 1 {
		t.Fatalf("served = %d", server.RequestsServed())
	}
}

// BenchmarkConcurrentSimnetThroughput is the virtual-network analogue
// of iiop's BenchmarkConcurrentTCPThroughput: the same caller fan-in,
// but with no socket underneath — what remains is the ORB invocation
// path itself (request build, dispatch, reply decode, link accounting),
// so the delta between the two benchmarks isolates the transport.
func BenchmarkConcurrentSimnetThroughput(b *testing.B) {
	for _, callers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("C=%d", callers), func(b *testing.B) {
			net := New(Link{})
			_, ref := pair(b, net)
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			errs := make(chan error, callers)
			for g := 0; g < callers; g++ {
				n := b.N / callers
				if g < b.N%callers {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := echo(b, ref, "bench"); err != nil {
							errs <- err
							return
						}
					}
				}(n)
			}
			wg.Wait()
			el := time.Since(start)
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
			if sec := el.Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "calls/s")
			}
		})
	}
}

func BenchmarkVirtualCallNoDelay(b *testing.B) {
	net := New(Link{})
	_, ref := pair(b, net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := echo(b, ref, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
