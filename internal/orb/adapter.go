package orb

import (
	"context"
	"sync"
	"sync/atomic"

	"corbalc/internal/cdr"
)

// Servant is the object-adapter-side contract: a CORBA object
// implementation that dynamically dispatches operations. Arguments arrive
// as a CDR decoder positioned at the request body; results are written to
// the reply encoder. Returning a *UserException produces a
// USER_EXCEPTION reply, a *SystemException produces a SYSTEM_EXCEPTION
// reply, and any other error maps to CORBA::UNKNOWN.
type Servant interface {
	// RepositoryID is the IDL interface repository ID implemented by
	// this servant, used as the type ID of IORs that designate it.
	RepositoryID() string
	// InvokeContext executes one operation under the request's context:
	// it carries the client-propagated deadline (via the SvcDeadline
	// service context) and the end-to-end call ID, and is cancelled when
	// the client sends a GIOP CancelRequest or the connection dies.
	InvokeContext(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error
}

// Adapter is the object adapter: a map from object keys to active
// servants. It plays the role of a single root POA with explicit
// activation, which is all the lightweight model needs.
//
// The active-object map is read on every inbound dispatch by every
// server worker, while (de)activations are rare control-plane events —
// so it is copy-on-write: Resolve loads an immutable snapshot through an
// atomic pointer (no lock, no cross-core cacheline bouncing), and
// writers build a fresh map under mu before publishing it.
type Adapter struct {
	mu       sync.Mutex // serialises writers; readers never take it
	servants atomic.Pointer[map[string]Servant]
}

// NewAdapter returns an empty adapter.
func NewAdapter() *Adapter {
	a := &Adapter{}
	m := make(map[string]Servant)
	a.servants.Store(&m)
	return a
}

// mutate publishes a copy of the active-object map with f applied.
func (a *Adapter) mutate(f func(map[string]Servant)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := *a.servants.Load()
	next := make(map[string]Servant, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	f(next)
	a.servants.Store(&next)
}

// Activate binds key to servant, replacing any previous binding.
func (a *Adapter) Activate(key string, s Servant) {
	a.mutate(func(m map[string]Servant) { m[key] = s })
}

// Deactivate removes the binding for key, if any.
func (a *Adapter) Deactivate(key string) {
	a.mutate(func(m map[string]Servant) { delete(m, key) })
}

// Resolve looks up the servant bound to key. Lock-free: it reads the
// current snapshot, so a Resolve racing an Activate sees the map either
// before or after the update, never a torn state.
func (a *Adapter) Resolve(key []byte) (Servant, bool) {
	s, ok := (*a.servants.Load())[string(key)]
	return s, ok
}

// Keys returns a snapshot of the active object keys.
func (a *Adapter) Keys() []string {
	m := *a.servants.Load()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
