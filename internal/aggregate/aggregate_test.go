package aggregate_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"corbalc"
	"corbalc/internal/aggregate"
	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/orb"
	"corbalc/internal/simnet"
	"corbalc/internal/xmldesc"
)

// sumSquares is a data-parallel component: the job is a range [lo, hi)
// encoded as two uint64s; split partitions it, process sums n*n over its
// chunk, gather adds the partials. delay simulates per-chunk remote CPU
// time so churn tests can interrupt a run in flight.
type sumSquares struct {
	component.Base
	delay time.Duration
}

func u64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }
func putRange(lo, hi uint64) []byte {
	out := make([]byte, 16)
	binary.LittleEndian.PutUint64(out, lo)
	binary.LittleEndian.PutUint64(out[8:], hi)
	return out
}

func (s *sumSquares) InvokePort(port, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	if port != "agg" {
		return component.ErrNoSuchPort
	}
	switch op {
	case "split":
		job, err := args.ReadOctetSeq()
		if err != nil {
			return err
		}
		parts, err := args.ReadLong()
		if err != nil {
			return err
		}
		lo, hi := u64(job, 0), u64(job, 1)
		span := (hi - lo) / uint64(parts)
		if span == 0 {
			span = 1
		}
		var chunks [][]byte
		for start := lo; start < hi; start += span {
			end := start + span
			if end > hi {
				end = hi
			}
			chunks = append(chunks, putRange(start, end))
		}
		reply.WriteULong(uint32(len(chunks)))
		for _, c := range chunks {
			reply.WriteOctetSeq(c)
		}
		return nil
	case "process":
		chunk, err := args.ReadOctetSeq()
		if err != nil {
			return err
		}
		lo, hi := u64(chunk, 0), u64(chunk, 1)
		var sum uint64
		for n := lo; n < hi; n++ {
			sum += n * n
		}
		if s.delay > 0 {
			time.Sleep(s.delay)
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, sum)
		reply.WriteOctetSeq(out)
		return nil
	case "gather":
		n, err := args.ReadULong()
		if err != nil {
			return err
		}
		var total uint64
		for i := uint32(0); i < n; i++ {
			p, err := args.ReadOctetSeq()
			if err != nil {
				return err
			}
			total += binary.LittleEndian.Uint64(p)
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, total)
		reply.WriteOctetSeq(out)
		return nil
	}
	return orb.BadOperation()
}

func aggCluster(t *testing.T, n int, delay time.Duration) *corbalc.Cluster {
	t.Helper()
	reg := component.NewRegistry()
	reg.Register("agg/sumsquares.New", func() component.Instance { return &sumSquares{delay: delay} })
	c, err := corbalc.NewCluster(n, "w%d", simnet.Link{}, corbalc.Options{
		Impls: reg, UpdateInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	spec := &component.Spec{
		Name: "sumsquares", Version: "1.0.0", Entrypoint: "agg/sumsquares.New",
		Splittable: true, Gather: "sum",
	}
	spec.Provide("agg", aggregate.AggregableRepoID)
	spec.QoS = xmldesc.QoS{CPUMin: 0.05}
	comp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Peers[1:] {
		if _, err := p.Node.InstallComponent(comp); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for all offers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		offers, err := c.Peers[0].Agent.QueryAll(context.Background(), aggregate.AggregableRepoID, "*")
		if err == nil && len(offers) == n-1 {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d offers", len(offers))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// expected sum of squares below n.
func sumSq(n uint64) uint64 {
	var s uint64
	for i := uint64(0); i < n; i++ {
		s += i * i
	}
	return s
}

func TestAggregateRun(t *testing.T) {
	c := aggCluster(t, 5, 0) // 4 workers
	r := &aggregate.Runner{ORB: c.Peers[0].Node.ORB(), Query: c.Peers[0].Agent}
	res, err := r.Run(context.Background(), "sumsquares", "*", putRange(0, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(res.Output); got != sumSq(10_000) {
		t.Fatalf("sum = %d, want %d", got, sumSq(10_000))
	}
	if res.Workers != 4 {
		t.Fatalf("workers = %d", res.Workers)
	}
	if res.Chunks < res.Workers {
		t.Fatalf("chunks = %d < workers", res.Chunks)
	}
	if res.Retries != 0 {
		t.Fatalf("unexpected retries: %d", res.Retries)
	}
}

func TestAggregateSurvivesMidRunChurn(t *testing.T) {
	// Each chunk takes ~20ms, so killing a worker shortly after the run
	// starts interrupts its in-flight chunks, which must be resubmitted
	// to the survivors.
	c := aggCluster(t, 5, 20*time.Millisecond)
	r := &aggregate.Runner{ORB: c.Peers[0].Node.ORB(), Query: c.Peers[0].Agent, PartsPerWorker: 4}
	go func() {
		time.Sleep(30 * time.Millisecond)
		c.Net.SetDown("w4", true)
	}()
	res, err := r.Run(context.Background(), "sumsquares", "*", putRange(0, 5_000))
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(res.Output); got != sumSq(5_000) {
		t.Fatalf("sum = %d, want %d", got, sumSq(5_000))
	}
	if res.Retries == 0 {
		t.Log("note: no retries observed (worker died between chunks); result still correct")
	}
}

func TestAggregateWorkerDownBeforeRun(t *testing.T) {
	// A worker that is already unreachable is simply excluded at obtain
	// time: graceful degradation rather than failure.
	c := aggCluster(t, 4, 0)
	c.Net.SetDown("w3", true)
	r := &aggregate.Runner{ORB: c.Peers[0].Node.ORB(), Query: c.Peers[0].Agent}
	res, err := r.Run(context.Background(), "sumsquares", "*", putRange(0, 3_000))
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(res.Output); got != sumSq(3_000) {
		t.Fatalf("sum = %d, want %d", got, sumSq(3_000))
	}
	if res.Workers != 2 {
		t.Fatalf("workers = %d, want 2 survivors", res.Workers)
	}
}

func TestAggregateErrors(t *testing.T) {
	c := aggCluster(t, 2, 0)
	r := &aggregate.Runner{ORB: c.Peers[0].Node.ORB(), Query: c.Peers[0].Agent}
	if _, err := r.Run(context.Background(), "nonexistent", "*", putRange(0, 10)); !errors.Is(err, aggregate.ErrNoWorkers) {
		t.Fatalf("err = %v", err)
	}
	// Version filter that matches nothing.
	if _, err := r.Run(context.Background(), "sumsquares", ">=9.0", putRange(0, 10)); !errors.Is(err, aggregate.ErrNoWorkers) {
		t.Fatalf("version err = %v", err)
	}
}

// TestE9GridSpeedup (§3.2): 32 chunks of 15ms simulated remote CPU each,
// farmed by the Runner over W volunteers, speed up near-linearly; eight
// volunteers must beat one by more than 3×. Churn during a run is
// TestAggregateSurvivesMidRunChurn's subject.
func TestE9GridSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	const chunks = 32
	makespan := map[int]time.Duration{}
	for _, w := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			c := aggCluster(t, w+1, 15*time.Millisecond)
			r := &aggregate.Runner{ORB: c.Peers[0].Node.ORB(), Query: c.Peers[0].Agent, PartsPerWorker: chunks / w}
			start := time.Now()
			res, err := r.Run(context.Background(), "sumsquares", "*", putRange(0, 100*chunks))
			makespan[w] = time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if got := binary.LittleEndian.Uint64(res.Output); got != sumSq(100*chunks) || res.Chunks != chunks {
				t.Fatalf("sum %d over %d chunks, want %d over %d", got, res.Chunks, sumSq(100*chunks), chunks)
			}
			t.Logf("%d workers: makespan %v, speedup %.2f", w, makespan[w], float64(makespan[1])/float64(makespan[w]))
		})
	}
	if sp := float64(makespan[1]) / float64(makespan[8]); sp < 3 {
		t.Errorf("8-worker speedup = %.2f", sp)
	}
}
