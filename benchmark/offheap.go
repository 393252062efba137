package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The generator's sample buffers live outside the Go heap. On the heap
// they would be tens of MiB of live data next to a system whose own
// live heap is a few MiB, and the collector — which paces itself on
// live heap — would run a tenth as often as it does in production,
// hiding exactly the allocation cost the benchmark is there to show.

// sampleBuf is an anonymous private mapping viewed as latency samples.
type sampleBuf struct {
	raw []byte
	lat []time.Duration // len 0, cap = the mapping's size
}

func newSampleBuf(capacity int) (*sampleBuf, error) {
	size := capacity * int(unsafe.Sizeof(time.Duration(0)))
	raw, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d sample bytes: %w", size, err)
	}
	return &sampleBuf{raw: raw, lat: unsafe.Slice((*time.Duration)(unsafe.Pointer(&raw[0])), capacity)[:0]}, nil
}

func (b *sampleBuf) free() error { return syscall.Munmap(b.raw) }
