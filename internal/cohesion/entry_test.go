package cohesion

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/iiop"
	"corbalc/internal/ior"
	"corbalc/internal/leak"
	"corbalc/internal/node"
	"corbalc/internal/race"
	"corbalc/internal/simnet"
)

// TestDerivedRefsMatchMinted pins that an entry and an offer lose
// nothing: every reference derived from a node's entry, and from an
// offer its LocalQuery returns, marshals byte-identically to the one its
// ORB mints, on simnet (in-process and virtual profiles) and with an
// IIOP endpoint (IIOP and in-process profiles). A call through the
// node's own derived cohesion reference takes the collocated path: it
// succeeds with the node cut off from every transport.
func TestDerivedRefsMatchMinted(t *testing.T) {
	leak.Check(t)
	net := simnet.New(simnet.Link{})
	onSimnet := node.New(node.Config{Name: "n042", Impls: testImpls(), Profile: node.WorkstationProfile()})
	defer onSimnet.Close()
	if err := net.Attach("n042", onSimnet.ORB()); err != nil {
		t.Fatal(err)
	}
	onIIOP := node.New(node.Config{Name: "n043", Impls: testImpls(), Profile: node.WorkstationProfile()})
	defer onIIOP.Close()
	srv, err := iiop.ListenAndActivate(onIIOP.ORB(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() // a second Close is a no-op

	c, err := adderSpec("adder", "1.0.0").Build()
	if err != nil {
		t.Fatal(err)
	}
	entries := map[*node.Node]*Entry{}
	for _, nd := range []*node.Node{onSimnet, onIIOP} {
		en := selfEntry(t, NewAgent(Config{Node: nd}))
		entries[nd] = en
		if _, err := nd.InstallComponent(c); err != nil {
			t.Fatal(err)
		}
		offers, err := nd.LocalQuery("IDL:test/Adder:1.0", "*")
		if err != nil || len(offers) != 1 {
			t.Fatalf("%s: LocalQuery = %d offers, %v", nd.Name(), len(offers), err)
		}
		for svc := node.NetworkCohesion; svc <= node.EventService; svc++ {
			want := encode(nd.Ref(svc).Marshal)
			for from, got := range map[string]*ior.IOR{"entry": en.Ref(svc), "offer": offers[0].Ref(svc)} {
				if got := encode(got.Marshal); !bytes.Equal(got, want) {
					t.Errorf("%s: the %s derives service %d as\n% x\nits ORB mints\n% x", nd.Name(), from, svc, got, want)
				}
			}
		}
	}

	net.SetDown("n042", true)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for nd, en := range entries {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := nd.ORB().NewRef(en.Ref(node.NetworkCohesion)).InvokeContext(ctx, "ping", nil, func(d *cdr.Decoder) error {
			_, err := d.ReadULongLong()
			return err
		})
		cancel()
		if err != nil {
			t.Errorf("%s: a call through its own derived cohesion reference left the process: %v", nd.Name(), err)
		}
	}
}

// swarmEntry is the entry of a swarm member as the swarm benchmark runs
// it: a four-character name on simnet, a workstation.
func swarmEntry(t *testing.T) []byte {
	t.Helper()
	tc := &testCluster{net: simnet.New(simnet.Link{})}
	nd, ag := tc.newAgent(t, "n042", nil)
	defer nd.Close()
	return encode(selfEntry(t, ag).Marshal)
}

// TestEntryFootprint pins a swarm member's entry at 96 B on the wire and
// 200 B live once decoded. Four full references made it 466 B on the wire
// and 524 B live.
func TestEntryFootprint(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector adds allocations of its own")
	}
	raw := swarmEntry(t)
	if len(raw) > 96 {
		t.Errorf("a swarm entry takes %d B on the wire, want at most 96", len(raw))
	}
	const n = 10000
	keep := make([]*Entry, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		en, err := unmarshalEntry(cdr.NewDecoder(raw, cdr.LittleEndian))
		if err != nil {
			t.Fatal(err)
		}
		keep[i] = en
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	runtime.KeepAlive(keep)
	t.Logf("a swarm entry: %d B on the wire, %d B live", len(raw), per)
	if per > 200 {
		t.Errorf("a decoded swarm entry holds %d B live, want at most 200", per)
	}
}

// TestAssignCutsOneEndpoint: Assign takes the benchmark ladder's shape,
// four references at one IIOP endpoint under distinct keys and type IDs,
// and derives each service at that endpoint under its well-known key. It
// refuses references on two endpoints, and a missing one.
func TestAssignCutsOneEndpoint(t *testing.T) {
	desc := func(name string, registryPort uint16) *NodeDesc {
		ref := func(key string, port uint16) *ior.IOR {
			return ior.New("IDL:corbalc/"+key+":1.0", "127.0.0.1", port, []byte(key+"/"+name))
		}
		return &NodeDesc{Name: name, Capability: "workstation",
			Cohesion: ref("Cohesion", 9000), Registry: ref("Registry", registryPort),
			Acceptor: ref("Acceptor", 9000), Resources: ref("Resources", 9000)}
	}
	dir := NewDirectory()
	if _, err := dir.Assign(desc("n000", 9000), 8); err != nil {
		t.Fatalf("the ladder's shape is refused: %v", err)
	}
	got := dir.Nodes["n000"].Ref(node.ComponentRegistry)
	want := ior.New(node.ComponentRegistry.RepoID(), "127.0.0.1", 9000, []byte(node.ComponentRegistry.Key()))
	if !bytes.Equal(encode(got.Marshal), encode(want.Marshal)) {
		t.Errorf("derived registry reference = %v, want %v", got, want)
	}

	e0 := dir.Epoch
	if _, err := dir.Assign(desc("n001", 9001), 8); err == nil {
		t.Error("references on two endpoints are accepted")
	}
	missing := desc("n002", 9000)
	missing.Resources = nil
	if _, err := dir.Assign(missing, 8); err == nil {
		t.Error("a descriptor with a missing reference is accepted")
	}
	if dir.Epoch != e0 || dir.Len() != 1 {
		t.Errorf("a refused descriptor changed the directory: epoch %d → %d, %d nodes", e0, dir.Epoch, dir.Len())
	}
}

// TestJoinRefusesBadEndpoint: a join whose entry carries bytes no cut
// returns is refused as a marshal error, and admits no one.
func TestJoinRefusesBadEndpoint(t *testing.T) {
	leak.Check(t)
	tc := newCluster(t, 1, nil)
	root := tc.agents[0]
	bad := &Entry{Name: "intruder", Capability: "workstation", endpoint: []byte("not an endpoint")}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := tc.nodes[0].ORB().NewRef(tc.nodes[0].Ref(node.NetworkCohesion)).InvokeContext(ctx, "join", bad.Marshal, nil)
	if err == nil {
		t.Fatal("a join with a malformed endpoint was admitted")
	}
	if _, n, _ := root.Stamp(); n != 1 {
		t.Fatalf("the directory holds %d nodes, want 1", n)
	}
}
