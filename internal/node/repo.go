package node

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"sync"

	"corbalc/internal/component"
	"corbalc/internal/version"
)

// Errors returned by the repository.
var (
	ErrNotInstalled  = errors.New("node: component not installed")
	ErrUntrusted     = errors.New("node: package failed signature verification")
	ErrFixedNode     = errors.New("node: this node does not accept component installation")
	ErrNoPlatformFit = errors.New("node: package has no implementation for this platform")
)

// Repository is the node's Component Repository (Fig. 1): the set of
// locally installed components, kept in binary form so they can be
// re-exported to other nodes ("to be extracted from, and brought to, a
// given host", §2.1.1). An export index keyed by provided-port interface
// ID (and by-name component key) keeps registry queries O(matches)
// instead of O(repository).
type Repository struct {
	mu      sync.RWMutex
	comps   map[component.ID]*component.Component
	exports map[string][]component.ID // port repo ID / component key -> providers
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		comps:   make(map[component.ID]*component.Component),
		exports: make(map[string][]component.ID),
	}
}

// exportKeys lists the index keys one component contributes.
func exportKeys(c *component.Component) []string {
	keys := []string{ComponentKey(c.Name())}
	for _, p := range c.Type().Ports {
		if p.Kind == "provides" {
			keys = append(keys, p.RepoID)
		}
	}
	return keys
}

// Put stores a loaded component and indexes its exports.
func (r *Repository) Put(c *component.Component) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := c.ID()
	if _, exists := r.comps[id]; !exists {
		for _, key := range exportKeys(c) {
			r.exports[key] = append(r.exports[key], id)
		}
	}
	r.comps[id] = c
}

// Get retrieves an installed component.
func (r *Repository) Get(id component.ID) (*component.Component, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.comps[id]
	return c, ok
}

// Remove uninstalls a component and drops its index entries.
func (r *Repository) Remove(id component.ID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.comps[id]
	if !ok {
		return false
	}
	delete(r.comps, id)
	for _, key := range exportKeys(c) {
		ids := r.exports[key]
		for i, x := range ids {
			if x == id {
				r.exports[key] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(r.exports[key]) == 0 {
			delete(r.exports, key)
		}
	}
	return true
}

// List returns installed component IDs, sorted for determinism.
func (r *Repository) List() []component.ID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]component.ID, 0, len(r.comps))
	for id := range r.comps {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version.Less(out[j].Version)
	})
	return out
}

// Len reports the number of installed components.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.comps)
}

// Providers returns the installed components matching an export key — a
// provided-port interface repository ID or a "component:<name>" key —
// honouring a version requirement on the component. The export index
// makes this O(matches).
func (r *Repository) Providers(exportKey string, req version.Requirement) []*component.Component {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := r.exports[exportKey]
	out := make([]*component.Component, 0, len(ids))
	for _, id := range ids {
		if !req.Matches(id.Version) {
			continue
		}
		if c, ok := r.comps[id]; ok {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID().String() < out[j].ID().String() })
	return out
}

// verifyPackage checks a package against a trusted key set; an empty key
// set accepts unsigned packages (open network).
func verifyPackage(c *component.Component, keys []ed25519.PublicKey) error {
	if len(keys) == 0 {
		return nil
	}
	var lastErr error
	for _, k := range keys {
		if err := c.Package().Verify(k); err == nil {
			return nil
		} else {
			lastErr = err
		}
	}
	return fmt.Errorf("%w: %v", ErrUntrusted, lastErr)
}
