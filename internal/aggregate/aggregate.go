// Package aggregate implements the data-parallel component support of
// paper §2.1.1: a component can declare (static property "aggregation")
// that it "knows how to split itself in different instances to process a
// set of data ... and how to gather partial results into a complete
// solution". The component contributes the domain knowledge — split,
// process, gather — through a conventional provided port; the framework
// contributes the distribution: discovering every provider in the
// network, farming chunks across them, surviving volunteer churn by
// resubmission, and invoking the gather step.
//
// The port contract (interface IDL:corbalc/Aggregable:1.0):
//
//	sequence<Blob> split(in Blob job, in long parts)
//	Blob           process(in Blob chunk)
//	Blob           gather(in sequence<Blob> partials)
//
// All payloads are opaque to the framework.
package aggregate

import (
	"context"
	"errors"
	"fmt"

	"corbalc/internal/cdr"
	"corbalc/internal/component"
	"corbalc/internal/ior"
	"corbalc/internal/node"
	"corbalc/internal/orb"
)

// AggregableRepoID is the port interface data-parallel components
// provide.
const AggregableRepoID = "IDL:corbalc/Aggregable:1.0"

// Errors returned by Run.
var (
	ErrNoWorkers     = errors.New("aggregate: no providers in the network")
	ErrNotSplittable = errors.New("aggregate: component does not declare aggregation support")
	ErrAllFailed     = errors.New("aggregate: every provider failed")
)

// Querier is the distributed-registry face the runner needs;
// cohesion.Agent's QueryAll satisfies it.
type Querier interface {
	QueryAll(ctx context.Context, portRepoID, versionReq string) ([]*node.Offer, error)
}

// Runner farms one aggregation job over the network.
type Runner struct {
	// ORB performs the calls.
	ORB *orb.ORB
	// Query discovers providers.
	Query Querier
	// PartsPerWorker chooses how many chunks to request per discovered
	// worker (default 2: mild over-partitioning smooths stragglers).
	PartsPerWorker int
	// MaxRetries bounds resubmissions of one chunk (default 3).
	MaxRetries int
}

// Result carries the gathered output and execution statistics.
type Result struct {
	Output  []byte
	Workers int
	Chunks  int
	Retries int
}

// Run splits job across every provider of the component (by name,
// honouring verReq), processes the chunks in parallel, and gathers. The
// context bounds the whole job: discovery, split, farming and gather.
func (r *Runner) Run(ctx context.Context, componentName, verReq string, job []byte) (*Result, error) {
	offers, err := r.Query.QueryAll(ctx, AggregableRepoID, verReq)
	if err != nil {
		return nil, err
	}
	// Keep only offers of the requested component that declare
	// splittability.
	var workers []*node.Offer
	for _, of := range offers {
		id, err := component.ParseID(of.ComponentID)
		if err != nil || id.Name != componentName {
			continue
		}
		workers = append(workers, of)
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("%w: component %s port %s", ErrNoWorkers, componentName, AggregableRepoID)
	}

	refs := make([]*orb.ObjectRef, 0, len(workers))
	for _, of := range workers {
		ref, err := r.obtain(ctx, of)
		if err == nil {
			refs = append(refs, ref)
		}
	}
	if len(refs) == 0 {
		return nil, ErrAllFailed
	}

	perWorker := r.PartsPerWorker
	if perWorker <= 0 {
		perWorker = 2
	}
	parts := len(refs) * perWorker

	// 1. Split on the first reachable instance: the component owns the
	// decomposition logic.
	chunks, err := r.split(ctx, refs[0], job, parts)
	if err != nil {
		return nil, fmt.Errorf("aggregate: split: %w", err)
	}
	if len(chunks) == 0 {
		return nil, fmt.Errorf("aggregate: component split produced no chunks")
	}

	// 2. Farm the chunks with retry-on-failure.
	partials, retries, err := r.farm(ctx, refs, chunks)
	if err != nil {
		return nil, err
	}

	// 3. Gather on any instance.
	out, err := r.gather(ctx, refs, partials)
	if err != nil {
		return nil, fmt.Errorf("aggregate: gather: %w", err)
	}
	return &Result{Output: out, Workers: len(refs), Chunks: len(chunks), Retries: retries}, nil
}

// obtain binds to a provider's aggregable port.
func (r *Runner) obtain(ctx context.Context, of *node.Offer) (*orb.ObjectRef, error) {
	acc := r.ORB.NewRef(of.Ref(node.ComponentAcceptor))
	var port *ior.IOR
	err := acc.InvokeContext(ctx, "obtain",
		func(e *cdr.Encoder) {
			e.WriteString(of.ComponentID)
			e.WriteString(AggregableRepoID)
		},
		func(d *cdr.Decoder) error {
			var e error
			port, e = ior.Unmarshal(d)
			return e
		})
	if err != nil {
		return nil, err
	}
	return r.ORB.NewRef(port), nil
}

func (r *Runner) split(ctx context.Context, ref *orb.ObjectRef, job []byte, parts int) ([][]byte, error) {
	var chunks [][]byte
	err := ref.InvokeContext(ctx, "split",
		func(e *cdr.Encoder) {
			e.WriteOctetSeq(job)
			e.WriteLong(int32(parts))
		},
		func(d *cdr.Decoder) error {
			n, err := d.ReadULong()
			if err != nil {
				return err
			}
			for i := uint32(0); i < n; i++ {
				c, err := d.ReadOctetSeq()
				if err != nil {
					return err
				}
				chunks = append(chunks, c)
			}
			return nil
		})
	return chunks, err
}

// farm runs the chunks across the worker refs; a failed call resubmits
// the chunk to another worker (volunteer churn, §3.2).
func (r *Runner) farm(ctx context.Context, refs []*orb.ObjectRef, chunks [][]byte) ([][]byte, int, error) {
	maxRetries := r.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 3
	}
	type task struct {
		idx   int
		tries int
	}
	type result struct {
		idx     int
		partial []byte
		err     error
		tries   int
	}
	work := make(chan task, len(chunks)*(maxRetries+1))
	results := make(chan result, len(chunks)*(maxRetries+1))
	for i := range chunks {
		work <- task{idx: i}
	}
	for _, ref := range refs {
		go func(ref *orb.ObjectRef) {
			for tk := range work {
				var partial []byte
				err := ref.InvokeContext(ctx, "process",
					func(e *cdr.Encoder) { e.WriteOctetSeq(chunks[tk.idx]) },
					func(d *cdr.Decoder) error {
						var e error
						partial, e = d.ReadOctetSeq()
						return e
					})
				results <- result{idx: tk.idx, partial: partial, err: err, tries: tk.tries}
				if err != nil {
					return // this worker is gone
				}
			}
		}(ref)
	}

	partials := make([][]byte, len(chunks))
	done := 0
	retries := 0
	for done < len(chunks) {
		var res result
		select {
		case res = <-results:
		case <-ctx.Done():
			close(work)
			return nil, retries, ctx.Err()
		}
		if res.err != nil {
			if res.tries+1 > maxRetries {
				close(work)
				return nil, retries, fmt.Errorf("%w: chunk %d failed %d times, last: %v",
					ErrAllFailed, res.idx, res.tries+1, res.err)
			}
			retries++
			work <- task{idx: res.idx, tries: res.tries + 1}
			continue
		}
		partials[res.idx] = res.partial
		done++
	}
	close(work)
	return partials, retries, nil
}

// gather tries each worker in turn until one performs the reduction.
func (r *Runner) gather(ctx context.Context, refs []*orb.ObjectRef, partials [][]byte) ([]byte, error) {
	var lastErr error
	for _, ref := range refs {
		var out []byte
		err := ref.InvokeContext(ctx, "gather",
			func(e *cdr.Encoder) {
				e.WriteULong(uint32(len(partials)))
				for _, p := range partials {
					e.WriteOctetSeq(p)
				}
			},
			func(d *cdr.Decoder) error {
				var e error
				out, e = d.ReadOctetSeq()
				return e
			})
		if err == nil {
			return out, nil
		}
		lastErr = err
	}
	return nil, lastErr
}
