package orb

import (
	"context"
	"testing"

	"corbalc/internal/race"
)

// nullCallAllocBudget is the allocation ceiling for one collocated null
// invocation (request build, call-ID mint, dispatch, reply build, reply
// decode). The pooled hot path measures 0 allocs/op; the ceiling leaves
// a little headroom for toolchain drift while still failing if any
// pooled stage starts allocating per call (the pre-pooling figure was
// 36).
const nullCallAllocBudget = 2

// TestNullCallAllocBudget is the in-tree allocation gate: a collocated
// null call must stay within nullCallAllocBudget allocations, in a plain
// `go test`. The benchmark suite's orb.collocated_allocs traces the same
// path.
func TestNullCallAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool randomly drops items under the race detector; alloc counts are not stable")
	}
	o := NewORB()
	ref := o.NewRef(o.Activate("test/echo", echoServant{}))
	call := func() {
		if err := ref.InvokeContext(context.Background(), "oneway_ping", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ { // warm every pool on the path
		call()
	}
	allocs := testing.AllocsPerRun(200, call)
	if allocs > nullCallAllocBudget {
		t.Fatalf("null call allocates %.1f times, budget %d", allocs, nullCallAllocBudget)
	}
}
