package component

import (
	"errors"
	"fmt"
	"sync"

	"corbalc/internal/cdr"
	"corbalc/internal/events"
	"corbalc/internal/orb"
	"corbalc/internal/xmldesc"
)

// Instance is the agreed local interface a component implementation
// presents to its container (paper §2.2: "the component/container dialog
// is based on agreed local interfaces, thus conforming a component
// framework"). Implementations must be safe for concurrent InvokePort
// calls.
type Instance interface {
	// Activate prepares the instance to serve requests; the container
	// passes the Context giving access to framework services.
	Activate(ctx Context) error
	// Passivate quiesces the instance (prior to destruction or
	// migration). After Passivate the container will not deliver
	// further invocations.
	Passivate() error
	// InvokePort dispatches an operation on a provided port.
	InvokePort(port, op string, args *cdr.Decoder, reply *cdr.Encoder) error
	// ConsumeEvent delivers an event arriving on a consumes port.
	ConsumeEvent(port string, ev events.Event)
	// CaptureState serialises the instance state so the framework can
	// migrate or replicate it ("the container can ask the component
	// instance to resume its execution returning its internal state").
	CaptureState() ([]byte, error)
	// RestoreState installs state captured from another incarnation.
	RestoreState(state []byte) error
}

// Context is the container-provided view of the framework (§2.2: "the
// instances ask the container for the required services and it in turn
// informs the instance of its environment").
type Context interface {
	// NodeName returns the hosting node's name.
	NodeName() string
	// UsePort resolves a connected uses port to an invocable reference.
	UsePort(name string) (*orb.ObjectRef, error)
	// Emit publishes an event on an emits port's push channel.
	Emit(port string, data []byte) error
	// AddPort extends the instance's port set at run-time (reflection
	// architecture, §2.4.2).
	AddPort(p xmldesc.Port) error
	// RemovePort retracts a dynamically added port.
	RemovePort(name string) error
}

// Errors shared by instance plumbing.
var (
	ErrNoSuchPort    = errors.New("component: no such port")
	ErrNotConnected  = errors.New("component: port not connected")
	ErrPortDeclared  = errors.New("component: cannot remove a port declared by the component type")
	ErrDuplicatePort = errors.New("component: duplicate port")
)

// Constructor builds a fresh, unactivated instance.
type Constructor func() Instance

// Registry maps implementation entry points (the <entrypoint> element of
// a softpkg code descriptor) to Go constructors. It substitutes for
// dynamic library loading: package installation still moves real binary
// payloads between nodes, but the final dlopen step resolves through
// this table (see DESIGN.md, substitutions).
type Registry struct {
	mu    sync.RWMutex
	ctors map[string]Constructor
}

// NewRegistry returns an empty implementation registry.
func NewRegistry() *Registry {
	return &Registry{ctors: make(map[string]Constructor)}
}

// Register binds an entry point to a constructor; later bindings win,
// mirroring library replacement on disk.
func (r *Registry) Register(entrypoint string, ctor Constructor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ctors[entrypoint] = ctor
}

// New instantiates the implementation behind an entry point.
func (r *Registry) New(entrypoint string) (Instance, error) {
	r.mu.RLock()
	ctor, ok := r.ctors[entrypoint]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("component: entrypoint %q not registered", entrypoint)
	}
	return ctor(), nil
}

// DefaultRegistry is the process-wide registry examples and cmd binaries
// register into.
var DefaultRegistry = NewRegistry()

// Base is an embeddable partial Instance: it stores the context on
// Activate and provides no-op lifecycle, state and event methods, so
// simple components implement only InvokePort (plus whatever they
// override).
type Base struct {
	mu  sync.RWMutex
	ctx Context
}

// Activate implements Instance.
func (b *Base) Activate(ctx Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ctx = ctx
	return nil
}

// Passivate implements Instance.
func (b *Base) Passivate() error { return nil }

// InvokePort implements Instance; components embedding Base override it
// for the ports they actually provide.
func (b *Base) InvokePort(port, op string, _ *cdr.Decoder, _ *cdr.Encoder) error {
	return fmt.Errorf("%w: %s (operation %s)", ErrNoSuchPort, port, op)
}

// ConsumeEvent implements Instance.
func (b *Base) ConsumeEvent(string, events.Event) {}

// CaptureState implements Instance (stateless).
func (b *Base) CaptureState() ([]byte, error) { return nil, nil }

// RestoreState implements Instance (stateless).
func (b *Base) RestoreState([]byte) error { return nil }

// Ctx returns the context supplied at activation (nil before).
func (b *Base) Ctx() Context {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.ctx
}
