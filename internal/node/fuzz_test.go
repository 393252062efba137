package node

// Fuzz the offer decoder: offers arrive from peers, in the update gossip
// that carries a node's offers to its group's MRMs and in query replies,
// and the deploy engine derives the offering node's references from each.

import (
	"bytes"
	"testing"

	"corbalc/internal/cdr"
	"corbalc/internal/iiop"
	"corbalc/internal/ior"
	"corbalc/internal/simnet"
)

// FuzzUnmarshalOffers decodes arbitrary bytes in either byte order. A
// decode never panics; every accepted offer re-marshals to bytes that
// decode and re-marshal byte-identically, and it owns its bytes
// (overwriting the input changes nothing in it). Every reference derived
// from an accepted offer marshals, decodes and re-marshals
// byte-identically.
func FuzzUnmarshalOffers(f *testing.F) {
	onSimnet := New(Config{Name: "n042", Impls: testImpls(), Profile: WorkstationProfile()})
	f.Cleanup(onSimnet.Close)
	if err := simnet.New(simnet.Link{}).Attach("n042", onSimnet.ORB()); err != nil {
		f.Fatal(err)
	}
	onIIOP := New(Config{Name: "n043", Impls: testImpls(), Profile: WorkstationProfile()})
	f.Cleanup(onIIOP.Close)
	srv, err := iiop.ListenAndActivate(onIIOP.ORB(), "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Close() })
	c, err := adderSpec("adder", "1.0.0").Build()
	if err != nil {
		f.Fatal(err)
	}
	var offers []*Offer
	for _, n := range []*Node{onSimnet, onIIOP} {
		if _, err := n.InstallComponent(c); err != nil {
			f.Fatal(err)
		}
		offers = append(offers, n.AllOffers()...)
	}
	for _, little := range []bool{false, true} {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		e := cdr.NewEncoder(order)
		MarshalOffers(e, offers)
		f.Add(little, e.Bytes())
		f.Add(little, e.Bytes()[:e.Len()/2]) // truncated inside an offer

		e = cdr.NewEncoder(order) // hostile offer count
		e.WriteULong(1 << 30)
		f.Add(little, e.Bytes())

		e = cdr.NewEncoder(order) // hostile endpoint length
		e.WriteULong(1)
		for _, s := range []string{"adder-1.0.0", "n042", "sum", "IDL:test/Adder:1.0"} {
			e.WriteString(s)
		}
		e.WriteBool(true)
		e.WriteDouble(0.05)
		e.WriteULong(0)
		e.WriteDouble(0)
		e.WriteDouble(0)
		e.WriteULong(1 << 30)
		f.Add(little, e.Bytes())
	}

	f.Fuzz(func(t *testing.T, little bool, in []byte) {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		buf := append([]byte(nil), in...)
		got, err := UnmarshalOffers(cdr.NewDecoder(buf, order))
		if err != nil {
			return
		}
		marshal := func(m func(*cdr.Encoder)) []byte {
			e := cdr.NewEncoder(order)
			m(e)
			return e.Bytes()
		}
		firsts := make([][]byte, len(got))
		for i, of := range got {
			first := marshal(of.Marshal)
			again, err := UnmarshalOffer(cdr.NewDecoder(first, order))
			if err != nil {
				t.Fatalf("re-marshalled offer does not decode: %v", err)
			}
			if second := marshal(again.Marshal); !bytes.Equal(second, first) {
				t.Fatalf("marshal∘decode is not stable:\n% x\n% x", first, second)
			}
			firsts[i] = first
			for svc := NetworkCohesion; svc <= EventService; svc++ {
				ref := marshal(of.Ref(svc).Marshal)
				back, err := ior.Unmarshal(cdr.NewDecoder(ref, order))
				if err != nil {
					t.Fatalf("%s: derived reference %d does not decode: %v", of.Node, svc, err)
				}
				if remarshalled := marshal(back.Marshal); !bytes.Equal(remarshalled, ref) {
					t.Fatalf("%s: derived reference %d is not stable:\n% x\n% x", of.Node, svc, ref, remarshalled)
				}
			}
		}

		for i := range buf {
			buf[i] ^= 0xFF
		}
		for i, of := range got {
			if after := marshal(of.Marshal); !bytes.Equal(after, firsts[i]) {
				t.Fatalf("overwriting the input changed decoded offer %d:\n% x\nwant\n% x", i, after, firsts[i])
			}
		}
	})
}
