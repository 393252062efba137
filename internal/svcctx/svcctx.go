// Package svcctx maps between Go context.Context values and the GIOP
// service contexts CORBA-LC piggybacks on request headers: SvcDeadline
// (the absolute call deadline, microseconds since the Unix epoch) and
// SvcCallID (an end-to-end correlation ID minted once per logical call
// and propagated to the server). A servant observes both through its
// context: CallID(ctx) and ctx.Deadline().
//
// Only request headers carry these contexts. Replies stay service-
// context-free on purpose: the ORB's reply-splice fast path relies on
// reply bodies always starting at stream offset 24 (see
// orb.handleRequest), and nothing in the deadline/cancellation protocol
// needs reply-side metadata.
package svcctx

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/giop"
)

// callIDKey is the context key under which the call's correlation ID
// travels.
type callIDKey struct{}

// WithCallID returns a context carrying the given correlation ID.
func WithCallID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, callIDKey{}, id)
}

// CallID returns the correlation ID carried by ctx, or "" when none is.
func CallID(ctx context.Context) string {
	id, _ := ctx.Value(callIDKey{}).(string)
	return id
}

// callIDBase is a once-per-process random prefix; per-call IDs append a
// counter to it. The split keeps IDs globally unique (the prefix) while
// taking the crypto/rand syscall off the invocation hot path (the
// counter) — minting an ID is one atomic add and one small allocation.
var callIDBase = func() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Crypto randomness is not load-bearing here — the ID only
		// correlates log lines — so degrade to a constant marker.
		return "norand"
	}
	return hex.EncodeToString(b[:])
}()

var callIDSeq atomic.Uint64

// NewCallID mints a fresh correlation ID: a per-process random prefix
// plus a process-local sequence number. Built in a stack buffer so the
// mint costs exactly one allocation (the returned string).
func NewCallID() string {
	var buf [32]byte
	b := append(buf[:0], callIDBase...)
	b = append(b, '-')
	b = strconv.AppendUint(b, callIDSeq.Add(1), 16)
	return string(b)
}

// AppendNewCallID appends a freshly-minted correlation ID to b and
// returns the extended buffer: NewCallID for a caller that keeps the ID
// in a reusable byte buffer (the invocation fast path, where even the
// one-string mint would be the only allocation left on the client side).
func AppendNewCallID(b []byte) []byte {
	b = append(b, callIDBase...)
	b = append(b, '-')
	return strconv.AppendUint(b, callIDSeq.Add(1), 16)
}

// maxCallIDLen bounds accepted correlation IDs so a hostile peer cannot
// make us retain arbitrarily large strings per request.
const maxCallIDLen = 128

// encodeDeadline renders an absolute deadline as a CDR encapsulation
// (byte-order octet + long long microseconds since the Unix epoch).
func encodeDeadline(t time.Time) []byte {
	e := cdr.NewEncoderAt(cdr.LittleEndian, 1)
	e.WriteLongLong(t.UnixMicro())
	return append([]byte{byte(cdr.LittleEndian)}, e.Bytes()...)
}

// decodeDeadline parses a deadline encapsulation.
func decodeDeadline(data []byte) (time.Time, error) {
	if len(data) < 1 {
		return time.Time{}, fmt.Errorf("svcctx: empty deadline context")
	}
	d := cdr.NewDecoderAt(data[1:], cdr.ByteOrder(data[0]&1), 1)
	us, err := d.ReadLongLong()
	if err != nil {
		return time.Time{}, fmt.Errorf("svcctx: bad deadline context: %w", err)
	}
	return time.UnixMicro(us), nil
}

// Inject appends the service contexts describing ctx (deadline, call ID)
// to scs and returns the extended list. A context with neither yields scs
// unchanged.
func Inject(ctx context.Context, scs []giop.ServiceContext) []giop.ServiceContext {
	return InjectIDBytes(ctx, []byte(CallID(ctx)), scs)
}

// InjectIDBytes is Inject with the call ID supplied by a caller holding
// it in a reusable byte buffer instead of read from ctx. The buffer is
// ALIASED by the returned list, not copied: it must stay valid until the
// header carrying the contexts has been encoded.
func InjectIDBytes(ctx context.Context, id []byte, scs []giop.ServiceContext) []giop.ServiceContext {
	if dl, ok := ctx.Deadline(); ok {
		scs = append(scs, giop.ServiceContext{ID: giop.SvcDeadline, Data: encodeDeadline(dl)})
	}
	if len(id) > 0 {
		scs = append(scs, giop.ServiceContext{ID: giop.SvcCallID, Data: id})
	}
	return scs
}

// Info is the call metadata extracted from a request's service contexts.
type Info struct {
	Deadline    time.Time // zero when the request carries none
	HasDeadline bool
	CallID      string // "" when the request carries none
}

// Extract pulls the deadline and call ID out of a service context list.
// Malformed entries are ignored — a bad vendor context must not fail the
// request.
func Extract(scs []giop.ServiceContext) Info {
	return ExtractBytes(scs).Materialise()
}

// InfoBytes is Info with the call ID still in wire form: CallID ALIASES
// the service-context buffer, so it is valid only while the request
// message is. The dispatch fast path reads it without the string copy
// Extract pays; anything that outlives the request goes through
// Materialise.
type InfoBytes struct {
	Deadline    time.Time
	HasDeadline bool
	CallID      []byte
}

// Materialise converts to an Info, detaching the call ID from the
// request buffer.
func (ib InfoBytes) Materialise() Info {
	info := Info{Deadline: ib.Deadline, HasDeadline: ib.HasDeadline}
	if len(ib.CallID) > 0 {
		info.CallID = string(ib.CallID)
	}
	return info
}

// ExtractBytes is Extract without the call-ID copy; see InfoBytes for
// the aliasing contract.
func ExtractBytes(scs []giop.ServiceContext) InfoBytes {
	var info InfoBytes
	for _, sc := range scs {
		switch sc.ID {
		case giop.SvcDeadline:
			if dl, err := decodeDeadline(sc.Data); err == nil {
				info.Deadline, info.HasDeadline = dl, true
			}
		case giop.SvcCallID:
			if n := len(sc.Data); n > 0 && n <= maxCallIDLen {
				info.CallID = sc.Data
			}
		}
	}
	return info
}

// CallCtx is a reusable context deriving a parent with a call ID held in
// wire (byte) form: the dispatch loop's alternative to WithCallID, bound
// over the transport's context or over the deadline derived from it. Bind
// copies the ID into an internal buffer whose capacity survives reuse, so
// a pooled CallCtx adds zero steady-state allocations per request; the
// string a CallID lookup returns is copied out on each read instead.
//
// A CallCtx is request-scoped in the strictest sense: the dispatch loop
// rebinds it for the next request as soon as the current one returns, so
// servants must not retain it (the same rule every pooled request context
// has).
type CallCtx struct {
	context.Context
	id []byte
}

// Bind points c at parent carrying the given call ID.
func (c *CallCtx) Bind(parent context.Context, id []byte) {
	c.Context = parent
	c.id = append(c.id[:0], id...)
}

// Value implements context.Context, answering call-ID lookups from the
// bound bytes and delegating everything else.
func (c *CallCtx) Value(key any) any {
	if _, ok := key.(callIDKey); ok {
		if len(c.id) == 0 {
			return c.Context.Value(key)
		}
		return string(c.id)
	}
	return c.Context.Value(key)
}
