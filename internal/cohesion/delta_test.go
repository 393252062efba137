package cohesion

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/ior"
	"corbalc/internal/leak"
	"corbalc/internal/node"
	"corbalc/internal/simnet"
)

// testEntry mints an entry whose endpoint is distinguishable per name.
func testEntry(name string) *Entry {
	ep, err := ior.Cut(ior.New(node.NetworkCohesion.RepoID(), "h-"+name, 7, []byte(node.NetworkCohesion.Key())))
	if err != nil {
		panic(err)
	}
	return &Entry{Name: name, Capability: "workstation", endpoint: ep}
}

// atVersion versions a test entry no directory holds yet.
func atVersion(en *Entry, version uint64) *Entry {
	en.version = version
	return en
}

// selfEntry is the entry ag enters in a directory.
func selfEntry(t *testing.T, ag *Agent) *Entry {
	t.Helper()
	en, err := ag.entry()
	if err != nil {
		t.Fatal(err)
	}
	return en
}

func encode(m func(e *cdr.Encoder)) []byte {
	e := cdr.NewEncoder(cdr.LittleEndian)
	m(e)
	return e.Bytes()
}

func TestDeltaMarshalRoundTrip(t *testing.T) {
	leak.Check(t)
	dd := &DirectoryDelta{
		From: 41, To: 42,
		Upserts: []DirUpsert{
			{Group: 0, Desc: atVersion(testEntry("a"), 42)},
			{Group: 3, Desc: atVersion(testEntry("b"), 42)},
		},
		Removes: []string{"gone", "also-gone"},
	}
	buf := encode(dd.Marshal)
	got, err := UnmarshalDelta(cdr.NewDecoder(buf, cdr.LittleEndian))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != dd.From || got.To != dd.To {
		t.Fatalf("epochs: got %d->%d, want %d->%d", got.From, got.To, dd.From, dd.To)
	}
	if len(got.Upserts) != 2 || got.Upserts[1].Group != 3 || got.Upserts[1].Desc.Name != "b" {
		t.Fatalf("upserts: %+v", got.Upserts)
	}
	if len(got.Removes) != 2 || got.Removes[0] != "gone" {
		t.Fatalf("removes: %v", got.Removes)
	}
}

func TestPatchMarshalRoundTrip(t *testing.T) {
	leak.Check(t)
	p := &DirectoryPatch{
		Epoch:    9,
		Groups:   [][]string{{"a", "b"}, nil, {"c"}},
		Versions: map[string]uint64{"a": 1, "b": 5, "c": 9},
		Upserts:  []DirUpsert{{Group: 2, Desc: atVersion(testEntry("c"), 9)}},
	}
	buf := encode(p.Marshal)
	got, err := UnmarshalPatch(cdr.NewDecoder(buf, cdr.LittleEndian))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 9 || len(got.Groups) != 3 || got.Groups[0][1] != "b" {
		t.Fatalf("groups: %+v", got)
	}
	if got.Versions["b"] != 5 || len(got.Upserts) != 1 || got.Upserts[0].Desc.Name != "c" {
		t.Fatalf("patch: %+v", got)
	}
}

// TestDeltaTruncation decodes every strict prefix of valid encodings:
// none may panic, and all must fail (the trailing extension blob means
// a complete message always consumes its final length field).
func TestDeltaTruncation(t *testing.T) {
	leak.Check(t)
	dd := &DirectoryDelta{From: 1, To: 2,
		Upserts: []DirUpsert{{Group: 1, Desc: atVersion(testEntry("x"), 2)}},
		Removes: []string{"y"}}
	p := &DirectoryPatch{Epoch: 3, Groups: [][]string{{"x"}},
		Versions: map[string]uint64{"x": 3},
		Upserts:  []DirUpsert{{Group: 0, Desc: atVersion(testEntry("x"), 3)}}}
	dir := NewDirectory()
	dir.assign(testEntry("x"), 3)
	dir.assign(testEntry("y"), 3)

	cases := []struct {
		name   string
		buf    []byte
		decode func([]byte) error
	}{
		{"delta", encode(dd.Marshal), func(b []byte) error {
			_, err := UnmarshalDelta(cdr.NewDecoder(b, cdr.LittleEndian))
			return err
		}},
		{"patch", encode(p.Marshal), func(b []byte) error {
			_, err := UnmarshalPatch(cdr.NewDecoder(b, cdr.LittleEndian))
			return err
		}},
		{"directory", encode(dir.Marshal), func(b []byte) error {
			_, err := UnmarshalDirectory(cdr.NewDecoder(b, cdr.LittleEndian))
			return err
		}},
		{"vv", encode(func(e *cdr.Encoder) {
			MarshalVersionVector(e, map[string]uint64{"a": 1, "b": 2})
		}), func(b []byte) error {
			_, err := UnmarshalVersionVector(cdr.NewDecoder(b, cdr.LittleEndian))
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.decode(tc.buf); err != nil {
			t.Fatalf("%s: full decode failed: %v", tc.name, err)
		}
		for cut := 0; cut < len(tc.buf); cut++ {
			if err := tc.decode(tc.buf[:cut]); err == nil {
				t.Fatalf("%s: decode of %d/%d-byte prefix succeeded", tc.name, cut, len(tc.buf))
			}
		}
	}
}

// TestDeltaFuzzNoPanic throws random garbage at every decoder; they must
// reject (or accept) without panicking or over-allocating.
func TestDeltaFuzzNoPanic(t *testing.T) {
	leak.Check(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(200))
		rng.Read(buf)
		_, _ = UnmarshalDelta(cdr.NewDecoder(buf, cdr.LittleEndian))
		_, _ = UnmarshalPatch(cdr.NewDecoder(buf, cdr.LittleEndian))
		_, _ = UnmarshalDirectory(cdr.NewDecoder(buf, cdr.LittleEndian))
		_, _ = UnmarshalVersionVector(cdr.NewDecoder(buf, cdr.LittleEndian))
	}
}

// TestDeltaExtensionTolerance appends unknown trailing fields through
// the extension blob; decoders must skip them and still round-trip.
func TestDeltaExtensionTolerance(t *testing.T) {
	leak.Check(t)
	junk := []byte("future-field-from-a-newer-version")
	dd := &DirectoryDelta{From: 5, To: 6, Removes: []string{"z"}}
	buf := encode(func(e *cdr.Encoder) { dd.marshalExt(e, junk) })
	got, err := UnmarshalDelta(cdr.NewDecoder(buf, cdr.LittleEndian))
	if err != nil || got.To != 6 || len(got.Removes) != 1 {
		t.Fatalf("delta with extension: %+v, %v", got, err)
	}

	p := &DirectoryPatch{Epoch: 7, Groups: [][]string{{"z"}},
		Versions: map[string]uint64{"z": 7},
		Upserts:  []DirUpsert{{Group: 0, Desc: atVersion(testEntry("z"), 7)}}}
	buf = encode(func(e *cdr.Encoder) { p.marshalExt(e, junk) })
	gp, err := UnmarshalPatch(cdr.NewDecoder(buf, cdr.LittleEndian))
	if err != nil || gp.Epoch != 7 || gp.Upserts[0].Desc.Name != "z" {
		t.Fatalf("patch with extension: %+v, %v", gp, err)
	}

	dir := NewDirectory()
	dir.assign(testEntry("z"), 2)
	buf = encode(func(e *cdr.Encoder) { dir.marshalExt(e, junk) })
	gd, err := UnmarshalDirectory(cdr.NewDecoder(buf, cdr.LittleEndian))
	if err != nil || gd.Epoch != dir.Epoch || gd.Len() != 1 {
		t.Fatalf("directory with extension: %+v, %v", gd, err)
	}
	if !sameDir(dir, gd) {
		t.Fatal("directory mismatch after extension round-trip")
	}
}

// TestQuickDeltaReplay drives a root directory through random mutation
// sequences, replaying each mutation's delta on a follower: the
// follower must track the root exactly, and a BuildPatch/Rebuild from
// any stale version vector must reconstruct the root state too.
func TestQuickDeltaReplay(t *testing.T) {
	leak.Check(t)
	cfg := &quick.Config{MaxCount: 60}
	check := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		root := NewDirectory()
		follower := NewDirectory()
		stale := NewDirectory() // stops applying deltas halfway: patch target
		var present []string
		next := 0
		for i, op := range ops {
			from := root.Epoch
			var delta *DirectoryDelta
			if op%3 != 0 || len(present) == 0 {
				name := fmt.Sprintf("m%03d", next)
				next++
				desc := testEntry(name)
				g := root.assign(desc, 4)
				present = append(present, name)
				delta = &DirectoryDelta{From: from, To: root.Epoch,
					Upserts: []DirUpsert{{Group: int32(g), Desc: desc}}}
			} else {
				j := rng.Intn(len(present))
				name := present[j]
				present = append(present[:j], present[j+1:]...)
				root.Remove(name)
				delta = &DirectoryDelta{From: from, To: root.Epoch, Removes: []string{name}}
			}
			// Wire round-trip the delta, as dissemination would.
			buf := encode(delta.Marshal)
			got, err := UnmarshalDelta(cdr.NewDecoder(buf, cdr.LittleEndian))
			if err != nil {
				return false
			}
			follower.Apply(got)
			if i < len(ops)/2 {
				stale.Apply(got)
			}
		}
		if !sameDir(root, follower) {
			return false
		}
		// Anti-entropy: a patch against the stale replica's version
		// vector must rebuild the root state from upserts + survivors.
		patch := root.BuildPatch(stale.VersionVector())
		buf := encode(patch.Marshal)
		gp, err := UnmarshalPatch(cdr.NewDecoder(buf, cdr.LittleEndian))
		if err != nil {
			return false
		}
		rebuilt, ok := gp.Rebuild(stale)
		return ok && sameDir(root, rebuilt)
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func sameDir(a, b *Directory) bool {
	ea, na, xa := a.Stamp()
	eb, nb, xb := b.Stamp()
	if ea != eb || na != nb || xa != xb {
		return false
	}
	if len(a.Groups) != len(b.Groups) {
		return false
	}
	for i := range a.Groups {
		if len(a.Groups[i]) != len(b.Groups[i]) {
			return false
		}
		for j := range a.Groups[i] {
			if a.Groups[i][j] != b.Groups[i][j] {
				return false
			}
		}
	}
	for i, en := range a.entries {
		other := b.entries[i]
		if other.version != en.version || !bytes.Equal(encode(en.Marshal), encode(other.Marshal)) {
			return false
		}
	}
	return true
}

// TestVersionSkewTriggersPull rolls one member's directory back to an
// old epoch (as if it had missed a run of deltas): the periodic digest
// ping must detect the divergence and the version-vector pull must
// restore convergence without a full snapshot transfer.
func TestVersionSkewTriggersPull(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 7, nil)
	setSyncEvery(tc.agents, 2)
	root := tc.agents[0]
	waitFor(t, 10*time.Second, "initial convergence", func() bool {
		e0, n0, x0 := root.Stamp()
		for _, ag := range tc.agents {
			if e, n, x := ag.Stamp(); e != e0 || n != n0 || x != x0 {
				return false
			}
		}
		return true
	})

	// Roll a plain member back to {root, self} — a worst-case skew where
	// nearly every version-vector entry is missing (it must still know
	// the root, or it could not even ping).
	victim := tc.agents[5]
	old := NewDirectory()
	old.assign(selfEntry(t, root), 3)
	old.assign(selfEntry(t, victim), 3)
	victim.mu.Lock()
	victim.c.dir = old
	victim.mu.Unlock()

	before := victim.Stats().AntiEntropyPulls
	waitFor(t, 10*time.Second, "anti-entropy reconvergence", func() bool {
		e0, n0, x0 := root.Stamp()
		e, n, x := victim.Stamp()
		return e == e0 && n == n0 && x == x0
	})
	if got := victim.Stats().AntiEntropyPulls; got <= before {
		t.Fatalf("pulls did not advance: %d -> %d", before, got)
	}
}

// TestRepairHintHealsStaleNode exercises the push half of anti-entropy:
// with the periodic digest ping effectively disabled, a member whose
// directory fell behind must still heal, because its gossip updates
// advertise the stale epoch and a fresher MRM candidate pushes back a
// repair hint that kicks an immediate pull.
func TestRepairHintHealsStaleNode(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 3, nil)
	setSyncEvery(tc.agents, 1<<30)
	root := tc.agents[0]
	waitFor(t, 10*time.Second, "initial convergence", func() bool {
		e0, n0, x0 := root.Stamp()
		for _, ag := range tc.agents {
			if e, n, x := ag.Stamp(); e != e0 || n != n0 || x != x0 {
				return false
			}
		}
		return true
	})

	// Pretend the last delta never arrived: only the epoch regresses, so
	// the periodic digest ping (disabled above) is the only other thing
	// that would ever notice.
	lag := tc.agents[2]
	regressAndHeal := func() {
		lag.mu.Lock()
		lag.c.dir.Epoch--
		lag.mu.Unlock()
		waitFor(t, 10*time.Second, "repair hint to restore the epoch", func() bool {
			e0, _, _ := root.Stamp()
			e, _, _ := lag.Stamp()
			return e == e0
		})
	}
	regressAndHeal()
	if lag.Stats().RepairHintsRecv == 0 {
		// The delta announcing the node's own join trails the join reply
		// through the gossip queue; still in flight, it applied
		// contiguously to the regressed epoch and healed the node with
		// no hint involved. It is spent now.
		regressAndHeal()
	}
	if got := lag.Stats().RepairHintsRecv; got == 0 {
		t.Error("stale node healed without receiving a repair hint")
	}
	if got := lag.Stats().AntiEntropyPulls; got == 0 {
		t.Error("repair hint did not trigger an anti-entropy pull")
	}
	sent := tc.agents[0].Stats().RepairHintsSent + tc.agents[1].Stats().RepairHintsSent
	if sent == 0 {
		t.Error("no MRM candidate pushed a repair hint")
	}
}

// TestPullRacesDeltaStream drives anti-entropy pulls against a node
// that is concurrently applying deltas. The node is kept ahead of the
// root, so every digest ping diverges and every patch comes back not
// newer: the pull then has to compare epochs once more, and it used to
// do that after dropping the lock, racing Directory.Apply. Meaningful
// under -race only.
func TestPullRacesDeltaStream(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 3, nil)
	setSyncEvery(tc.agents, 1<<30)
	waitFor(t, 10*time.Second, "initial convergence", func() bool {
		return swarmConverged(tc.agents, 3)
	})
	victim := tc.agents[2] // a plain member: it relays nothing
	bump := func() {
		from, _, _ := victim.Stamp()
		victim.handleDelta(&DirectoryDelta{From: from, To: from + 1}, nil)
	}
	start, _, _ := victim.Stamp()
	bump() // ahead of the root before the first ping
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				bump()
			}
		}
	}()
	// Keep pulling until the stream has demonstrably run alongside.
	deadline := time.Now().Add(10 * time.Second)
	for pulls := 0; ; pulls++ {
		victim.syncDirectory()
		if e, _, _ := victim.Stamp(); pulls >= 50 && e >= start+50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delta stream never overlapped the pulls")
		}
	}
	close(stop)
	<-done
	if got := victim.Stats().AntiEntropyPulls; got < 50 {
		t.Fatalf("pulls issued = %d, want every sync to pull", got)
	}
}

// TestRootQueryRacesDeltaStream answers root queries while the same
// agent applies a delta stream that adds and drops a member of the
// exporting group. rootQuery must copy the group's candidates before it
// drops the lock, or it races Directory.Apply. Meaningful under -race
// only.
func TestRootQueryRacesDeltaStream(t *testing.T) {
	leak.Check(t)
	tc := &testCluster{net: simnet.New(simnet.Link{})}
	nd, root := tc.newAgent(t, "root", nil)
	t.Cleanup(func() {
		root.Stop()
		nd.Close()
	})
	const port = "IDL:test/Adder:1.0"
	root.mu.Lock()
	root.c.dir.assign(selfEntry(t, root), root.cfg.GroupSize)
	root.c.summaries[0] = &groupSummary{exports: map[string]bool{port: true}}
	root.mu.Unlock()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		x := testEntry("x")
		for {
			select {
			case <-stop:
				return
			default:
			}
			e, _, _ := root.Stamp()
			root.handleDelta(&DirectoryDelta{From: e, To: e + 1,
				Upserts: []DirUpsert{{Group: 0, Desc: x}}}, nil)
			root.handleDelta(&DirectoryDelta{From: e + 1, To: e + 2, Removes: []string{"x"}}, nil)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for queries := 0; ; queries++ {
		root.rootQuery(context.Background(), port, "", -1)
		if e, _, _ := root.Stamp(); queries >= 2000 && e >= 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delta stream never overlapped the queries")
		}
	}
	close(stop)
	<-done
}
