package cdr

import (
	"testing"

	"corbalc/internal/race"
)

// TestPooledEncodeZeroAlloc pins the pooled encoder and the aliasing
// decode at zero allocations once warm. ReadString is left out: it
// copies by design.
func TestPooledEncodeZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool randomly drops items under the race detector; alloc counts are not stable")
	}
	payload := []byte("request body payload")
	var d Decoder
	roundTrip := func() {
		e := GetEncoder(LittleEndian, 12)
		e.WriteULong(7)
		e.WriteOctetSeq(payload)
		e.WriteString("square")
		d.Reset(e.Bytes(), LittleEndian, 12)
		if v, err := d.ReadULong(); err != nil || v != 7 {
			t.Fatalf("ReadULong = %d, %v", v, err)
		}
		if b, err := d.ReadOctetSeqAlias(); err != nil || string(b) != string(payload) {
			t.Fatalf("ReadOctetSeqAlias = %q, %v", b, err)
		}
		e.Release()
	}
	roundTrip() // warm the pools
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("pooled encode and aliasing decode allocate %.1f times per round trip, want 0", allocs)
	}
}
