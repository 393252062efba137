package bufpool

import (
	"sync"
	"testing"

	"corbalc/internal/race"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {256, 0}, {257, 1}, {1024, 1}, {1025, 2},
		{1 << 20, len(classSizes) - 1}, {1<<20 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFloorClassFor(t *testing.T) {
	cases := []struct{ c, want int }{
		{0, -1}, {255, -1}, {256, 0}, {1023, 0}, {1024, 1},
		{1 << 20, len(classSizes) - 1}, {2 << 20, len(classSizes) - 1},
	}
	for _, c := range cases {
		if got := floorClassFor(c.c); got != c.want {
			t.Errorf("floorClassFor(%d) = %d, want %d", c.c, got, c.want)
		}
	}
}

// TestGetCapacityInvariant pins the invariant Put/Get rely on: any
// buffer served for n has cap ≥ n, even when the pool holds recycled
// buffers whose capacity is not an exact class size.
func TestGetCapacityInvariant(t *testing.T) {
	// File an odd-capacity buffer (cap 300 → class 256).
	Put(make([]byte, 300))
	for _, n := range []int{1, 100, 256, 300, 1024, 5000} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len = %d", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("Get(%d): cap = %d < n", n, cap(b))
		}
		Put(b)
	}
}

func TestOversizedBypassesPool(t *testing.T) {
	b := Get(2 << 20)
	if len(b) != 2<<20 {
		t.Fatalf("len = %d", len(b))
	}
	Put(b) // must not panic; dropped
}

func TestPutNil(t *testing.T) { Put(nil) }

func TestCopy(t *testing.T) {
	src := []byte("retained payload")
	cp := Copy(src)
	if string(cp) != string(src) {
		t.Fatalf("Copy = %q", cp)
	}
	src[0] = 'X'
	if cp[0] == 'X' {
		t.Fatal("Copy aliases its source")
	}
	Put(cp)
}

// TestConcurrentGetPut exercises the pool under the race detector.
func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			sizes := []int{16, 700, 5000, 70000}
			for i := 0; i < 500; i++ {
				n := sizes[(seed+i)%len(sizes)]
				b := Get(n)
				for j := 0; j < len(b); j += 512 {
					b[j] = byte(seed)
				}
				Put(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestGetPutZeroAlloc pins a warm Get/Put cycle at zero allocations in
// the smallest class, the 1 KiB class, and the 256 KiB class a 70 KB
// bulk body lands in.
func TestGetPutZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool randomly drops items under the race detector; alloc counts are not stable")
	}
	for _, n := range []int{16, 1 << 10, 70_000} {
		Put(Get(n)) // warm the class
		if allocs := testing.AllocsPerRun(100, func() { Put(Get(n)) }); allocs != 0 {
			t.Errorf("Get(%d)+Put allocates %.1f times per cycle, want 0", n, allocs)
		}
	}
}

func BenchmarkGetPut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := Get(1024)
		Put(buf)
	}
}
