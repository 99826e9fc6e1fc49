package forwarder

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// TestNACKAlongsideDataLive pins the paper's §5.B trade-off on the live
// forwarder: when an upstream answer NACKs the primary (invalid) tag
// but carries the content alongside, valid requesters aggregated in the
// same PIT entry still get the Data — each aggregated tag is judged on
// its own by EdgeOnAggregatedData, not by the primary's verdict. The
// test plays the upstream itself so the answer ordering is
// deterministic. The sim-plane twin is internal/oracle's
// TestNACKAlongsideDataSim.
func TestNACKAlongsideDataLive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	provKey, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	reg := pki.NewRegistry()
	if err := reg.Register(provKey.Locator(), provKey.Public()); err != nil {
		t.Fatal(err)
	}
	prov, err := core.NewProvider(names.MustParse("/prov0"), provKey, time.Minute, rng)
	if err != nil {
		t.Fatal(err)
	}
	name := names.MustParse("/prov0/report/chunk0")
	content, err := prov.Publish(name, 1, []byte("classified"))
	if err != nil {
		t.Fatal(err)
	}

	edge, err := New(Config{ID: "edge-nad", Role: RoleEdge, Registry: reg, Seed: 7, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	// The test holds the upstream end of the edge's only route.
	upCli, upFwd := net.Pipe()
	defer upCli.Close()
	up := transport.New(upCli)
	edge.AddRoute(names.MustParse("/prov0"), edge.AddFace(transport.New(upFwd), false))

	ap := core.EmptyAccessPath.Accumulate("edge-nad")
	expiry := time.Now().Add(time.Hour)
	// Mallory's tag is forged — signed by a rogue key under the
	// provider's locator — so it passes the edge's Interest-time checks
	// (prefix, expiry, access path; no signature there) and is only
	// caught upstream.
	rogue, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	forged, err := core.IssueTag(rogue, names.MustParse("/users/mallory/KEY/1"), 2, ap, expiry)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := core.IssueTag(provKey, names.MustParse("/users/alice/KEY/1"), 2, ap, expiry)
	if err != nil {
		t.Fatal(err)
	}

	newClient := func() (*transport.Conn, net.Conn) {
		cSide, fSide := net.Pipe()
		edge.AddFace(transport.New(fSide), true)
		return transport.New(cSide), cSide
	}
	mallory, malloryRaw := newClient()
	defer mallory.Close()
	alice, aliceRaw := newClient()
	defer alice.Close()

	// Mallory's Interest opens the PIT entry; reading it from the
	// upstream guarantees the entry (and its out-face) is recorded
	// before Alice's arrives.
	if err := mallory.SendInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: 1, Tag: forged}); err != nil {
		t.Fatal(err)
	}
	upCli.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // pipes support deadlines
	pkt, err := up.Receive()
	if err != nil || pkt.Interest == nil {
		t.Fatalf("upstream did not see the primary Interest: pkt=%+v err=%v", pkt, err)
	}
	// Alice aggregates onto the pending entry (a different requester, so
	// nothing is re-sent upstream).
	if err := alice.SendInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: 2, Tag: valid}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "alice to aggregate", func() bool {
		_, aggregated, _ := edge.pipe.PIT().Stats()
		return aggregated == 1
	})

	// One upstream answer for the shared entry: the primary's NACK with
	// the content alongside.
	type result struct {
		d   *ndn.Data
		err error
	}
	read := func(c *transport.Conn, raw net.Conn) chan result {
		ch := make(chan result, 1)
		go func() {
			raw.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // pipes support deadlines
			for {
				pkt, err := c.Receive()
				if err != nil {
					ch <- result{nil, err}
					return
				}
				if pkt.Data != nil && pkt.Data.Name.Equal(name) {
					ch <- result{pkt.Data, nil}
					return
				}
			}
		}()
		return ch
	}
	malloryCh, aliceCh := read(mallory, malloryRaw), read(alice, aliceRaw)
	if err := up.SendData(&ndn.Data{Name: name, Content: content, Tag: forged, Nack: true, NackReason: core.ErrTagForged}); err != nil {
		t.Fatal(err)
	}

	mr := <-malloryCh
	if mr.err != nil {
		t.Fatalf("mallory read: %v", mr.err)
	}
	if !mr.d.Nack {
		t.Error("forged primary was served; want explicit NACK")
	}
	if mr.d.Content != nil {
		t.Error("forged primary received the content alongside its NACK")
	}
	ar := <-aliceCh
	if ar.err != nil {
		t.Fatalf("alice read: %v", ar.err)
	}
	if ar.d.Nack {
		t.Error("valid aggregated requester was NACKed")
	}
	if ar.d.Content == nil {
		t.Fatal("valid aggregated requester got no content")
	}
	if got, want := string(ar.d.Content.Payload), string(content.Payload); got != want {
		t.Errorf("delivered payload mismatch")
	}
}
