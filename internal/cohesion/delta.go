package cohesion

import (
	"fmt"
	"slices"
	"sort"

	"corbalc/internal/cdr"
)

// This file carries the incremental wire forms of the discovery plane
// (DESIGN.md §13). The root MRM is the directory's single writer, so
// every mutation advances the epoch by exactly one and can be shipped
// as a DirectoryDelta: members apply contiguous deltas in place,
// ignore duplicates, and fall back to an anti-entropy pull — a
// DirectoryPatch keyed on the puller's version vector — when they see
// a gap. Both forms end in a length-prefixed extension blob so future
// fields never break older decoders.

// DirUpsert records one entry added or refreshed by a delta or patch.
type DirUpsert struct {
	// Group is the index the root placed the node into.
	Group int32
	// Desc is the node's directory entry, its version inside.
	Desc *Entry
}

// DirectoryDelta is one root mutation: the epoch transition plus the
// entries it upserted or removed.
type DirectoryDelta struct {
	From, To uint64
	Upserts  []DirUpsert
	Removes  []string
}

// Marshal encodes the delta.
func (dd *DirectoryDelta) Marshal(e *cdr.Encoder) { dd.marshalExt(e, nil) }

func (dd *DirectoryDelta) marshalExt(e *cdr.Encoder, ext []byte) {
	e.WriteULongLong(dd.From)
	e.WriteULongLong(dd.To)
	marshalUpserts(e, dd.Upserts)
	e.WriteStringSeq(dd.Removes)
	e.WriteOctetSeq(ext)
}

// UnmarshalDelta decodes a delta, skipping unknown trailing fields.
func UnmarshalDelta(d *cdr.Decoder) (*DirectoryDelta, error) {
	dd := &DirectoryDelta{}
	var err error
	if dd.From, err = d.ReadULongLong(); err != nil {
		return nil, err
	}
	if dd.To, err = d.ReadULongLong(); err != nil {
		return nil, err
	}
	if dd.Upserts, err = unmarshalUpserts(d, "delta"); err != nil {
		return nil, err
	}
	if dd.Removes, err = d.ReadStringSeq(); err != nil {
		return nil, err
	}
	if _, err := d.ReadOctetSeqAlias(); err != nil { // skip extensions
		return nil, err
	}
	return dd, nil
}

// Apply replays a contiguous delta (From == dir.Epoch) in place,
// reproducing the root's mutation exactly: removals shrink groups
// without renumbering them, upserts land in the group the root chose,
// and the epoch jumps to To. The caller has already checked contiguity.
func (dir *Directory) Apply(dd *DirectoryDelta) {
	for _, name := range dd.Removes {
		dir.drop(name)
	}
	for _, up := range dd.Upserts {
		dir.place(up)
	}
	dir.Epoch = dd.To
}

// place installs one upsert, packing its endpoint: a refresh keeps the
// node's group, a new member is appended to the group the root picked
// (growing the group table when the root opened a fresh group).
func (dir *Directory) place(up DirUpsert) {
	dir.spare = pack(dir.spare, up.Desc)
	if !dir.put(up.Desc) {
		return
	}
	for int(up.Group) >= len(dir.Groups) {
		dir.Groups = append(dir.Groups, nil)
	}
	dir.Groups[up.Group] = append(dir.Groups[up.Group], up.Desc.Name)
}

// marshalUpserts encodes upserts: group, version, entry.
func marshalUpserts(e *cdr.Encoder, ups []DirUpsert) {
	e.WriteULong(uint32(len(ups)))
	for _, up := range ups {
		e.WriteLong(up.Group)
		e.WriteULongLong(up.Desc.version)
		up.Desc.Marshal(e)
	}
}

// unmarshalUpserts decodes the upserts of a delta or a patch (what),
// their endpoints copied into one block.
func unmarshalUpserts(d *cdr.Decoder, what string) ([]DirUpsert, error) {
	nu, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint32(d.Remaining())/12 < nu {
		return nil, cdr.ErrTooLong
	}
	ups := make([]DirUpsert, 0, nu)
	size := 0
	for i := uint32(0); i < nu; i++ {
		group, err := d.ReadLong()
		if err != nil {
			return nil, err
		}
		version, err := d.ReadULongLong()
		if err != nil {
			return nil, err
		}
		en, err := unmarshalEntry(d)
		if err != nil {
			return nil, fmt.Errorf("cohesion: %s upsert %d: %w", what, i, err)
		}
		en.version = version
		size += len(en.endpoint)
		ups = append(ups, DirUpsert{Group: group, Desc: en})
	}
	block := make([]byte, 0, size)
	for _, up := range ups {
		block = pack(block, up.Desc)
	}
	return ups, nil
}

// DirectoryPatch is an anti-entropy pull's answer: the full (cheap)
// group table and version vector at the root's epoch, plus entries
// only for the entries the puller's version vector lacked. Removals are
// implicit — the puller drops every node absent from Groups.
type DirectoryPatch struct {
	Epoch    uint64
	Groups   [][]string
	Versions map[string]uint64
	Upserts  []DirUpsert
}

// BuildPatch diffs the directory against a puller's version vector in
// one walk of the groups.
func (dir *Directory) BuildPatch(vv map[string]uint64) *DirectoryPatch {
	p := &DirectoryPatch{
		Epoch:    dir.Epoch,
		Groups:   make([][]string, len(dir.Groups)),
		Versions: make(map[string]uint64, len(dir.entries)),
	}
	for i, g := range dir.Groups {
		p.Groups[i] = slices.Clone(g)
		for _, name := range g {
			en := dir.Entry(name)
			if en == nil {
				continue // a peer's snapshot can list a member without its entry
			}
			p.Versions[name] = en.version
			if vv[name] != en.version {
				p.Upserts = append(p.Upserts, DirUpsert{Group: int32(i), Desc: en})
			}
		}
	}
	return p
}

// Rebuild reconstructs a full directory from the patch, reusing the
// puller's previous entries (prev) for the members the patch did not
// need to ship. ok is false when a group member has neither an upsert
// nor a prior entry at its version, or an upsert no group lists: the
// puller must fall back to a full pull.
func (p *DirectoryPatch) Rebuild(prev *Directory) (*Directory, bool) {
	dir := &Directory{Epoch: p.Epoch, Groups: p.Groups, entries: make([]*Entry, 0, len(p.Versions))}
	for _, up := range p.Upserts {
		dir.put(up.Desc)
	}
	members := 0
	for _, g := range p.Groups {
		members += len(g)
		for _, name := range g {
			if dir.Entry(name) != nil {
				continue
			}
			nd := prev.Entry(name)
			if nd == nil || nd.version != p.Versions[name] {
				return nil, false
			}
			dir.put(nd)
		}
	}
	if dir.Len() != members {
		return nil, false
	}
	dir.alias()
	return dir, true
}

// Marshal encodes the patch.
func (p *DirectoryPatch) Marshal(e *cdr.Encoder) { p.marshalExt(e, nil) }

func (p *DirectoryPatch) marshalExt(e *cdr.Encoder, ext []byte) {
	e.WriteULongLong(p.Epoch)
	e.WriteULong(uint32(len(p.Groups)))
	for _, g := range p.Groups {
		e.WriteStringSeq(g)
	}
	MarshalVersionVector(e, p.Versions)
	marshalUpserts(e, p.Upserts)
	e.WriteOctetSeq(ext)
}

// UnmarshalPatch decodes a patch, skipping unknown trailing fields.
func UnmarshalPatch(d *cdr.Decoder) (*DirectoryPatch, error) {
	p := &DirectoryPatch{}
	var err error
	if p.Epoch, err = d.ReadULongLong(); err != nil {
		return nil, err
	}
	ng, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint32(d.Remaining())/4 < ng {
		return nil, cdr.ErrTooLong
	}
	p.Groups = make([][]string, ng)
	for i := range p.Groups {
		if p.Groups[i], err = d.ReadStringSeq(); err != nil {
			return nil, err
		}
	}
	if p.Versions, err = UnmarshalVersionVector(d); err != nil {
		return nil, err
	}
	if p.Upserts, err = unmarshalUpserts(d, "patch"); err != nil {
		return nil, err
	}
	if _, err := d.ReadOctetSeqAlias(); err != nil { // skip extensions
		return nil, err
	}
	return p, nil
}

// MarshalVersionVector encodes a version vector in sorted name order.
func MarshalVersionVector(e *cdr.Encoder, vv map[string]uint64) {
	names := make([]string, 0, len(vv))
	for n := range vv {
		names = append(names, n)
	}
	sort.Strings(names)
	e.WriteULong(uint32(len(names)))
	for _, n := range names {
		e.WriteString(n)
		e.WriteULongLong(vv[n])
	}
}

// UnmarshalVersionVector decodes a version vector.
func UnmarshalVersionVector(d *cdr.Decoder) (map[string]uint64, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint32(d.Remaining())/12 < n {
		return nil, cdr.ErrTooLong
	}
	vv := make(map[string]uint64, n)
	for i := uint32(0); i < n; i++ {
		name, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		ver, err := d.ReadULongLong()
		if err != nil {
			return nil, err
		}
		vv[name] = ver
	}
	return vv, nil
}
