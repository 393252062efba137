// Package cohesion implements the logical network cohesion protocol of
// CORBA-LC (paper §2.4.1 and §2.4.3): membership (join/leave/ping),
// hierarchical grouping with Meta-Resource Managers (MRMs), soft
// network consistency through periodic keep-alive resource updates with
// failure timeouts, peer-replicated MRMs with deterministic failover,
// and the distributed component query path that climbs the hierarchy
// only when the local group cannot satisfy a request.
//
// Three consistency modes are provided because the paper argues their
// trade-off: Soft (periodic deltas to the group's MRM replicas — the
// design the paper advocates), Strong (every change immediately flooded
// to every node — the "perfect knowledge" baseline it argues against),
// and the Predictive refinement of Soft (updates suppressed while a
// dead-band/linear predictor tracks the real value, §2.4.3 "predictive
// and adaptive techniques can be used ... reducing even more the
// bandwidth requirements").
package cohesion

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"corbalc/internal/cdr"
	"corbalc/internal/ior"
	"corbalc/internal/node"
)

// NodeDesc is the descriptor a node mints for itself: its name, its
// capability and the references of its four services (Fig. 1). A
// directory holds it folded into an Entry.
type NodeDesc struct {
	Name       string
	Capability string
	Cohesion   *ior.IOR
	Registry   *ior.IOR
	Acceptor   *ior.IOR
	Resources  *ior.IOR
}

// Entry is one node's directory entry: its name, its capability and the
// one endpoint (ior.Cut) its services share. A service's reference
// is derived from it where one is invoked (Ref); deltas, patches and
// joins carry and apply entries without deriving any.
type Entry struct {
	Name       string
	Capability string
	endpoint   []byte
}

// newEntry folds a descriptor into an entry. It refuses a descriptor
// whose four references do not cut to one endpoint.
func newEntry(desc *NodeDesc) (*Entry, error) {
	en := &Entry{Name: desc.Name, Capability: desc.Capability}
	for i, ref := range [...]*ior.IOR{desc.Cohesion, desc.Registry, desc.Acceptor, desc.Resources} {
		if ref == nil {
			return nil, fmt.Errorf("cohesion: node %q: a service reference is missing", desc.Name)
		}
		ep, err := ior.Cut(ref)
		switch {
		case err != nil:
			return nil, fmt.Errorf("cohesion: node %q: %w", desc.Name, err)
		case i == 0:
			en.endpoint = ep
		case !bytes.Equal(ep, en.endpoint):
			return nil, fmt.Errorf("cohesion: node %q: its service references name more than one endpoint", desc.Name)
		}
	}
	return en, nil
}

// Ref derives the reference of one of the entry's services.
func (en *Entry) Ref(svc node.Service) *ior.IOR { return node.Derive(en.endpoint, svc) }

// Marshal encodes the entry: name, capability, endpoint.
func (en *Entry) Marshal(e *cdr.Encoder) {
	e.WriteString(en.Name)
	e.WriteString(en.Capability)
	e.WriteOctetSeq(en.endpoint)
}

// unmarshalEntry decodes an entry (a delta's, a patch's, a directory's or
// a join's) and refuses an endpoint ior.CheckEndpoint refuses.
func unmarshalEntry(d *cdr.Decoder) (*Entry, error) {
	en := &Entry{}
	var err error
	if en.Name, err = d.ReadString(); err != nil {
		return nil, err
	}
	if en.Capability, err = d.ReadString(); err != nil {
		return nil, err
	}
	if en.endpoint, err = d.ReadOctetSeq(); err != nil {
		return nil, err
	}
	if err := ior.CheckEndpoint(en.endpoint); err != nil {
		return nil, err
	}
	return en, nil
}

// Directory is the replicated membership state: the set of nodes, their
// grouping, and a monotonically increasing epoch. The root MRM mutates
// it (joins, leaves, confirmed deaths) and disseminates versioned
// deltas to every node; everyone else treats it as read-only.
type Directory struct {
	Epoch  uint64
	Groups [][]string // group index -> member names, join order preserved
	Nodes  map[string]*Entry
	// Versions is the per-entry version vector: for each member, the
	// epoch at which its entry last changed. Anti-entropy pulls ship it
	// so the root can answer with only the entries the puller lacks.
	Versions map[string]uint64

	// memberXor folds every member name into one order-independent hash,
	// maintained incrementally — (Epoch, Len, memberXor) is an O(1)
	// convergence probe for swarm-scale tests.
	memberXor uint64
}

// NewDirectory returns an empty directory at epoch 0.
func NewDirectory() *Directory {
	return &Directory{Nodes: make(map[string]*Entry), Versions: make(map[string]uint64)}
}

func nameHash(name string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name)) // fnv never errors
	return h.Sum64()
}

// Stamp returns the O(1) convergence probe: two directories with equal
// stamps hold the same epoch and member set.
func (dir *Directory) Stamp() (epoch uint64, n int, xor uint64) {
	return dir.Epoch, len(dir.Nodes), dir.memberXor
}

// Clone deep-copies the directory (entries are shared, they are
// immutable once published).
func (dir *Directory) Clone() *Directory {
	out := &Directory{
		Epoch:     dir.Epoch,
		Nodes:     make(map[string]*Entry, len(dir.Nodes)),
		Versions:  make(map[string]uint64, len(dir.Versions)),
		memberXor: dir.memberXor,
	}
	out.Groups = make([][]string, len(dir.Groups))
	for i, g := range dir.Groups {
		out.Groups[i] = append([]string(nil), g...)
	}
	for k, v := range dir.Nodes {
		out.Nodes[k] = v
	}
	for k, v := range dir.Versions {
		out.Versions[k] = v
	}
	return out
}

// GroupOf returns the group index containing the node, or -1.
func (dir *Directory) GroupOf(name string) int {
	for i, g := range dir.Groups {
		for _, m := range g {
			if m == name {
				return i
			}
		}
	}
	return -1
}

// Members returns the member list of a group (nil when out of range).
func (dir *Directory) Members(group int) []string {
	if group < 0 || group >= len(dir.Groups) {
		return nil
	}
	return dir.Groups[group]
}

// Assign folds a node's descriptor into its entry (refusing one whose
// references name more than one endpoint) and places the entry with
// assign.
func (dir *Directory) Assign(desc *NodeDesc, g int) (int, error) {
	en, err := newEntry(desc)
	if err != nil {
		return -1, err
	}
	return dir.assign(en, g), nil
}

// assign places a node into the first group with room (group size limit
// g), creating a new group when all are full. It mutates the directory
// and bumps the epoch. Assigning an existing member is idempotent
// (refreshes its entry, keeps its group) so duplicate or racing joins
// cannot corrupt the grouping.
func (dir *Directory) assign(en *Entry, g int) int {
	if existing := dir.GroupOf(en.Name); existing >= 0 {
		dir.Nodes[en.Name] = en
		dir.Epoch++
		dir.setVersion(en.Name)
		return existing
	}
	dir.Nodes[en.Name] = en
	dir.memberXor ^= nameHash(en.Name)
	for i := range dir.Groups {
		if len(dir.Groups[i]) < g {
			dir.Groups[i] = append(dir.Groups[i], en.Name)
			dir.Epoch++
			dir.setVersion(en.Name)
			return i
		}
	}
	dir.Groups = append(dir.Groups, []string{en.Name})
	dir.Epoch++
	dir.setVersion(en.Name)
	return len(dir.Groups) - 1
}

func (dir *Directory) setVersion(name string) {
	if dir.Versions == nil {
		dir.Versions = make(map[string]uint64)
	}
	dir.Versions[name] = dir.Epoch
}

// Remove deletes a node (leave or confirmed death); empty groups are
// kept in place so group indices remain stable.
func (dir *Directory) Remove(name string) bool {
	if !dir.drop(name) {
		return false
	}
	dir.Epoch++
	return true
}

// drop deletes a node without advancing the epoch — the shared core of
// Remove (root mutation, bumps) and delta application (the delta's To
// epoch is adopted instead).
func (dir *Directory) drop(name string) bool {
	if _, ok := dir.Nodes[name]; !ok {
		return false
	}
	delete(dir.Nodes, name)
	delete(dir.Versions, name)
	dir.memberXor ^= nameHash(name)
	for i, g := range dir.Groups {
		for j, m := range g {
			if m == name {
				dir.Groups[i] = append(g[:j], g[j+1:]...)
				return true
			}
		}
	}
	return true
}

// Names lists all member names, sorted.
func (dir *Directory) Names() []string {
	out := make([]string, 0, len(dir.Nodes))
	for n := range dir.Nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the node count.
func (dir *Directory) Len() int { return len(dir.Nodes) }

// RootGroup is the group whose leading members act as the root MRM
// replicas. It is the first non-empty group.
func (dir *Directory) RootGroup() int {
	for i, g := range dir.Groups {
		if len(g) > 0 {
			return i
		}
	}
	return -1
}

// Candidates returns the first r members of a group — the group's MRM
// replica candidates in priority order ("the protocol must allow
// replicated peer MRMs per group") — as a copy: agents carry it out from
// under their lock, and a removal shifts the group's slice in place.
func (dir *Directory) Candidates(group, r int) []string {
	g := dir.Members(group)
	return slices.Clone(g[:min(r, len(g))])
}

// RootCandidates returns the root MRM replica candidates.
func (dir *Directory) RootCandidates(r int) []string {
	rg := dir.RootGroup()
	if rg < 0 {
		return nil
	}
	return dir.Candidates(rg, r)
}

// Marshal encodes the directory: epoch, groups, entries with their
// version-vector values, and a trailing extension blob that
// decoders skip — future fields land there without breaking older
// readers.
func (dir *Directory) Marshal(e *cdr.Encoder) { dir.marshalExt(e, nil) }

func (dir *Directory) marshalExt(e *cdr.Encoder, ext []byte) {
	e.WriteULongLong(dir.Epoch)
	e.WriteULong(uint32(len(dir.Groups)))
	for _, g := range dir.Groups {
		e.WriteStringSeq(g)
	}
	e.WriteULong(uint32(len(dir.Nodes)))
	for _, name := range dir.Names() {
		dir.Nodes[name].Marshal(e)
		e.WriteULongLong(dir.Versions[name])
	}
	e.WriteOctetSeq(ext)
}

// UnmarshalDirectory decodes a directory, rebuilding the incremental
// membership hash and tolerating (skipping) unknown trailing fields.
func UnmarshalDirectory(d *cdr.Decoder) (*Directory, error) {
	dir := NewDirectory()
	var err error
	if dir.Epoch, err = d.ReadULongLong(); err != nil {
		return nil, err
	}
	ng, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint32(d.Remaining())/4 < ng {
		return nil, cdr.ErrTooLong
	}
	dir.Groups = make([][]string, ng)
	for i := range dir.Groups {
		if dir.Groups[i], err = d.ReadStringSeq(); err != nil {
			return nil, err
		}
	}
	nn, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint32(d.Remaining())/8 < nn {
		return nil, cdr.ErrTooLong
	}
	for i := uint32(0); i < nn; i++ {
		nd, err := unmarshalEntry(d)
		if err != nil {
			return nil, fmt.Errorf("cohesion: node %d: %w", i, err)
		}
		ver, err := d.ReadULongLong()
		if err != nil {
			return nil, err
		}
		dir.Nodes[nd.Name] = nd
		dir.Versions[nd.Name] = ver
		dir.memberXor ^= nameHash(nd.Name)
	}
	if _, err := d.ReadOctetSeqAlias(); err != nil { // skip extensions
		return nil, err
	}
	return dir, nil
}
