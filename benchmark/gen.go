package main

import (
	"fmt"
	"math/rand"
	"time"
)

// Everything the program under test receives is generated here, from
// the seed, before the measured window opens.

// stroke mirrors bench::Stroke.
type stroke struct {
	X, Y, Colour int32
	Author       string
}

// sum is what add_stroke returns: a value the caller can check without
// the servant keeping state.
func (s stroke) sum() int32 { return s.X + s.Y + s.Colour + int32(len(s.Author)) }

// strokeOf is what get_stroke(id) returns: a pure function of the id,
// so a cached reply and a fresh one are both checkable.
func strokeOf(id int32) stroke {
	return stroke{X: id, Y: 2 * id, Colour: id % 7, Author: fmt.Sprintf("artist-%03d", id)}
}

var authors = []string{
	"ann", "bo", "carmen", "dmitri", "eleanor-rigby", "fatima", "gus", "hyun-woo",
	"ingrid", "joão", "kwame", "li", "marguerite", "noor", "olu", "priyanka",
}

func randStroke(r *rand.Rand) stroke {
	return stroke{
		X:      r.Int31n(4096),
		Y:      r.Int31n(4096),
		Colour: r.Int31n(1 << 24),
		Author: authors[r.Intn(len(authors))],
	}
}

// seqLen is how many distinct arguments a native closed-loop caller
// cycles through: long enough that no predictor or cache learns it, a
// few KiB of heap.
const seqLen = 8192

// bulkPayloads is how many distinct 64 KiB payloads iiop_bulk rotates.
const (
	bulkPayloads = 8
	bulkSize     = 64 << 10
)

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	_, _ = r.Read(b) // math/rand's Read never fails
	return b
}

// Web operation kinds of the gw_mix_open mix.
const (
	kindGet = iota
	kindAdd
	kindPoke
)

// Mix shares of gw_mix_open, in percent.
const (
	mixAddPct  = 2
	mixPokePct = 1
	zipfS      = 1.1
	zipfIDs    = 256
)

// webOp is one pre-rendered HTTP request and the reply it must get.
type webOp struct {
	kind   uint8
	path   string
	body   []byte
	status int
	want   []byte // canonical reply body; nil when the body is not checked
}

func addOp(s stroke) *webOp {
	return &webOp{
		kind:   kindAdd,
		path:   "/obj/board/add_stroke",
		body:   []byte(fmt.Sprintf(`{"s":{"x":%d,"y":%d,"colour":%d,"author":%q}}`, s.X, s.Y, s.Colour, s.Author)),
		status: 200,
		want:   []byte(fmt.Sprintf("{\"result\":%d}\n", s.sum())),
	}
}

func getOp(id int32) *webOp {
	s := strokeOf(id)
	return &webOp{
		kind:   kindGet,
		path:   "/obj/board/get_stroke",
		body:   []byte(fmt.Sprintf(`{"id":%d}`, id)),
		status: 200,
		want: []byte(fmt.Sprintf("{\"result\":{\"author\":%q,\"colour\":%d,\"x\":%d,\"y\":%d}}\n",
			s.Author, s.Colour, s.X, s.Y)),
	}
}

func pokeOp(v int32) *webOp {
	return &webOp{kind: kindPoke, path: "/obj/board/poke", body: []byte(fmt.Sprintf(`{"v":%d}`, v)), status: 202}
}

// webDistinct is how many distinct add_stroke requests gw_uncached
// cycles through: rendered requests live on the heap next to a system
// whose own live heap is a megabyte or two, so there are only as many as
// it takes to keep strokes, authors and lengths varied.
const webDistinct = 1024

// uncachedOps is gw_uncached's sequence: add_stroke only.
func uncachedOps(r *rand.Rand) []*webOp {
	ops := make([]*webOp, webDistinct)
	for i := range ops {
		ops[i] = addOp(randStroke(r))
	}
	return ops
}

// mixOps is gw_mix_open's sequence: Zipf-distributed cached reads with a
// sprinkle of invalidating writes and oneways. Reads of one id share one
// rendered request.
func mixOps(r *rand.Rand, n int) []*webOp {
	z := rand.NewZipf(r, zipfS, 1, zipfIDs-1)
	gets := make([]*webOp, zipfIDs)
	ops := make([]*webOp, n)
	for i := range ops {
		switch p := r.Intn(100); {
		case p < mixAddPct:
			ops[i] = addOp(randStroke(r))
		case p < mixAddPct+mixPokePct:
			ops[i] = pokeOp(r.Int31())
		default:
			id := z.Uint64()
			if gets[id] == nil {
				gets[id] = getOp(int32(id))
			}
			ops[i] = gets[id]
		}
	}
	return ops
}

// schedule is an open-loop send plan: operation i is due at
// start + offset + i*period, whatever happened to operation i-1.
type schedule struct {
	start  time.Time
	offset time.Duration
	period time.Duration
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(s.offset + time.Duration(i)*s.period)
}
