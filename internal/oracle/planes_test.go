package oracle

import (
	"errors"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/forwarder"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/network"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/sim"
	"github.com/tactic-icn/tactic/internal/topology"
	"github.com/tactic-icn/tactic/internal/transport"
)

// The tests in this file pin, on both planes, the forwarding behaviours
// the sim and live handlers used to disagree on. Each runs one router of
// a plane between two requesters and a scripted upstream:
//
//	sim:  requester 0, requester 1 — access point — router — upstream
//	live: requester 0, requester 1 (one face each) — forwarder — upstream
//
// so the only difference the tests see is the plane's I/O: the sim's
// requesters share the access point's face, the live requesters have a
// face each.

var twinPrefix = names.MustParse("/prov0")

// twinOpts shapes the router under test.
type twinOpts struct {
	edge bool
	// budget caps outstanding verifications per face; hold keeps every
	// verification outstanding until settle (sim: a 200 ms virtual
	// verify; live: a held verifier).
	budget int
	hold   bool
}

// twin is one plane's router under test.
type twin interface {
	// entity is the access-path identity of the requesters' first on-path hop.
	entity() string
	// interest sends i from requester req.
	interest(req int, i *ndn.Interest)
	// data sends d from the upstream.
	data(d *ndn.Data)
	// route installs the route toward the upstream.
	route()
	// settle lets the plane go quiet and returns what reached the
	// upstream and each requester since the last settle. Held
	// verifications are released once an Interest has been sent.
	settle(t *testing.T) (up []*ndn.Interest, got [2][]*ndn.Data)
	close()
}

// twinMaterial is the provider key and tags both planes share.
type twinMaterial struct {
	registry *pki.Registry
	signer   pki.Signer
	content  *core.Content
}

func newTwinMaterial(t *testing.T) *twinMaterial {
	t.Helper()
	signer, err := pki.GenerateFast(rand.New(rand.NewSource(5)), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	reg := pki.NewRegistry()
	if err := reg.Register(signer.Locator(), signer.Public()); err != nil {
		t.Fatal(err)
	}
	prov, err := core.NewProvider(twinPrefix, signer, time.Hour, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := prov.Publish(twinPrefix.MustAppend("obj", "c0"), 1, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	return &twinMaterial{registry: reg, signer: signer, content: c}
}

// tag issues a valid level-2 tag for user, bound to entity.
func (m *twinMaterial) tag(t *testing.T, user, entity string) *core.Tag {
	t.Helper()
	tag, err := core.IssueTag(m.signer, names.MustParse("/users/"+user+"/KEY/1"), 2,
		core.EmptyAccessPath.Accumulate(entity), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return tag
}

// simTwin: nodes 0, 1 requesters, 2 access point, 3 router, 4 upstream.
type simTwin struct {
	engine *sim.Engine
	net    *network.Network
	router *network.RouterNode
	reqs   [2]*planeStub
	up     *planeStub
}

type planeStub struct {
	interests []*ndn.Interest
	data      []*ndn.Data
}

func (s *planeStub) HandleInterest(i *ndn.Interest, _ ndn.FaceID) {
	s.interests = append(s.interests, i)
}
func (s *planeStub) HandleData(d *ndn.Data, _ ndn.FaceID) { s.data = append(s.data, d) }

func newSimTwin(t *testing.T, m *twinMaterial, o twinOpts) twin {
	t.Helper()
	kinds := []topology.Kind{topology.KindClient, topology.KindClient, topology.KindAccessPoint, topology.KindEdgeRouter, topology.KindCoreRouter}
	g := &topology.Graph{}
	for i, k := range kinds {
		g.Nodes = append(g.Nodes, topology.Node{Index: i, ID: k.String() + "-t" + string(rune('0'+i)), Kind: k})
		g.Adj = append(g.Adj, nil)
	}
	for _, l := range [][2]int{{0, 2}, {1, 2}, {2, 3}, {3, 4}} {
		g.Edges = append(g.Edges, topology.Edge{A: l[0], B: l[1], Spec: sim.LinkSpec{Latency: time.Millisecond, BandwidthBps: 1e9}})
		g.Adj[l[0]] = append(g.Adj[l[0]], topology.Neighbor{Node: l[1], Edge: len(g.Edges) - 1})
		g.Adj[l[1]] = append(g.Adj[l[1]], topology.Neighbor{Node: l[0], Edge: len(g.Edges) - 1})
	}
	engine := sim.NewEngine()
	nw := network.New(engine, g, sim.NewStreams(1))
	if o.hold {
		nw.ChargeDelays, nw.Delays = true, floodSimDelays()
	}
	r, err := network.NewRouterNode(nw, 3, o.edge, m.registry, rand.New(rand.NewSource(7)), network.RouterConfig{
		BFCapacity: 500, BFMaxFPP: 1e-4, CSCapacity: 16, PITLifetime: 2 * time.Second, VerifyBudget: o.budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &simTwin{engine: engine, net: nw, router: r, reqs: [2]*planeStub{{}, {}}, up: &planeStub{}}
	nw.SetNode(0, s.reqs[0])
	nw.SetNode(1, s.reqs[1])
	nw.SetNode(2, network.NewAPNode(nw, 2, 2*time.Second))
	nw.SetNode(3, r)
	nw.SetNode(4, s.up)
	return s
}

func (s *simTwin) entity() string                    { return s.net.Graph.Nodes[2].ID }
func (s *simTwin) interest(req int, i *ndn.Interest) { s.net.SendInterest(req, 0, i, 0) }
func (s *simTwin) data(d *ndn.Data)                  { s.net.SendData(4, 0, d, 0) }
func (s *simTwin) route()                            { s.router.FIB().Insert(twinPrefix, s.net.FaceToward(3, 4)) }
func (s *simTwin) close()                            {}

func (s *simTwin) settle(*testing.T) (up []*ndn.Interest, got [2][]*ndn.Data) {
	s.engine.Run()
	up, s.up.interests = s.up.interests, nil
	for n, r := range s.reqs {
		got[n], r.data = r.data, nil
	}
	return up, got
}

// liveTwin runs a forwarder whose faces are in-process pipes drained by
// reader goroutines.
type liveTwin struct {
	fwd    *forwarder.Forwarder
	gate   *gatedVerifier
	reqs   [2]*transport.Conn
	up     *transport.Conn
	upFace ndn.FaceID
	sent   uint64

	mu    sync.Mutex
	upIn  []*ndn.Interest
	reqIn [2][]*ndn.Data
	wg    sync.WaitGroup
}

func newLiveTwin(t *testing.T, m *twinMaterial, o twinOpts) twin {
	t.Helper()
	role := forwarder.RoleCore
	if o.edge {
		role = forwarder.RoleEdge
	}
	l := &liveTwin{}
	var verifier pki.Verifier
	if o.hold {
		l.gate = newGatedVerifier(m.registry)
		l.gate.hold()
		verifier = l.gate
	}
	fwd, err := forwarder.New(forwarder.Config{ID: "edge-live", Role: role, Registry: m.registry, Verifier: verifier,
		VerifyBudget: o.budget, CSCapacity: 16, Seed: 1, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	l.fwd = fwd
	pipe := func(downstream bool, sink func(*transport.Packet)) (*transport.Conn, ndn.FaceID) {
		mine, theirs := net.Pipe()
		id := fwd.AddFace(transport.New(theirs), downstream)
		c := transport.New(mine)
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for {
				pkt, err := c.Receive()
				if err != nil {
					return
				}
				l.mu.Lock()
				sink(&pkt)
				l.mu.Unlock()
			}
		}()
		return c, id
	}
	for n := range l.reqs {
		n := n
		l.reqs[n], _ = pipe(true, func(p *transport.Packet) {
			if p.Data != nil {
				l.reqIn[n] = append(l.reqIn[n], p.Data)
			}
		})
	}
	l.up, l.upFace = pipe(false, func(p *transport.Packet) {
		if p.Interest != nil {
			l.upIn = append(l.upIn, p.Interest)
		}
	})
	return l
}

func (l *liveTwin) entity() string { return "edge-live" }

func (l *liveTwin) interest(req int, i *ndn.Interest) {
	l.sent++
	l.reqs[req].SendInterest(i) //nolint:errcheck // a failed send shows as a missing outcome
}

func (l *liveTwin) data(d *ndn.Data) {
	l.up.SendData(d) //nolint:errcheck // a failed send shows as a missing outcome
}

func (l *liveTwin) route() { l.fwd.AddRoute(twinPrefix, l.upFace) }

func (l *liveTwin) settle(t *testing.T) (up []*ndn.Interest, got [2][]*ndn.Data) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.fwd.Stats().Interests < l.sent {
		if time.Now().After(deadline) {
			t.Fatalf("forwarder read %d of %d Interests", l.fwd.Stats().Interests, l.sent)
		}
		time.Sleep(time.Millisecond)
	}
	if l.gate != nil && l.sent > 0 {
		l.gate.release()
	}
	time.Sleep(300 * time.Millisecond)
	l.mu.Lock()
	defer l.mu.Unlock()
	up, l.upIn = l.upIn, nil
	for n := range l.reqIn {
		got[n], l.reqIn[n] = l.reqIn[n], nil
	}
	return up, got
}

func (l *liveTwin) close() {
	l.fwd.Close()
	for _, c := range l.reqs {
		c.Close()
	}
	l.up.Close()
	l.wg.Wait()
}

// onBothPlanes runs fn against a sim twin and a live twin.
func onBothPlanes(t *testing.T, o twinOpts, fn func(t *testing.T, m *twinMaterial, tw twin)) {
	for _, plane := range []struct {
		name string
		make func(*testing.T, *twinMaterial, twinOpts) twin
	}{{"sim", newSimTwin}, {"live", newLiveTwin}} {
		t.Run(plane.name, func(t *testing.T) {
			m := newTwinMaterial(t)
			tw := plane.make(t, m, o)
			defer tw.close()
			fn(t, m, tw)
		})
	}
}

func nonces(up []*ndn.Interest) []uint64 {
	out := make([]uint64, 0, len(up))
	for _, i := range up {
		out = append(out, i.Nonce)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func content(m *twinMaterial, nonce uint64, tag *core.Tag) *ndn.Interest {
	return &ndn.Interest{Name: m.content.Meta.Name, Kind: ndn.KindContent, Nonce: nonce, Tag: tag}
}

// TestPlanesRetransmission: a fresh nonce is re-forwarded upstream only
// when it comes from a face that already holds a record with the same
// tag; a different requester only aggregates, even on a shared face.
func TestPlanesRetransmission(t *testing.T) {
	onBothPlanes(t, twinOpts{edge: true}, func(t *testing.T, m *twinMaterial, tw twin) {
		alice, bob := m.tag(t, "alice", tw.entity()), m.tag(t, "bob", tw.entity())
		tw.route()
		tw.interest(0, content(m, 1, alice))
		if up, _ := tw.settle(t); len(up) != 1 {
			t.Fatalf("first Interest: upstream saw %v, want nonce 1", nonces(up))
		}
		tw.interest(0, content(m, 2, alice))
		tw.interest(1, content(m, 3, bob))
		if up, _ := tw.settle(t); len(up) != 1 || up[0].Nonce != 2 {
			t.Errorf("upstream saw %v, want only alice's retransmission (nonce 2)", nonces(up))
		}
	})
}

// TestPlanesNoRouteFreesPIT: an Interest dropped for want of a route
// leaves no PIT entry behind, so the requester's retransmission is
// forwarded once a route exists.
func TestPlanesNoRouteFreesPIT(t *testing.T) {
	onBothPlanes(t, twinOpts{edge: true}, func(t *testing.T, m *twinMaterial, tw twin) {
		alice := m.tag(t, "alice", tw.entity())
		tw.interest(0, content(m, 1, alice))
		if up, _ := tw.settle(t); len(up) != 0 {
			t.Fatalf("routeless Interest reached the upstream: %v", nonces(up))
		}
		tw.route()
		tw.interest(0, content(m, 2, alice))
		if up, _ := tw.settle(t); len(up) != 1 || up[0].Nonce != 2 {
			t.Errorf("upstream saw %v, want the retransmission (nonce 2)", nonces(up))
		}
	})
}

// TestPlanesUpstreamDenialNACK: an edge that refuses to deliver
// upstream-NACKed content tells the client, with the upstream reason.
func TestPlanesUpstreamDenialNACK(t *testing.T) {
	onBothPlanes(t, twinOpts{edge: true}, func(t *testing.T, m *twinMaterial, tw twin) {
		alice := m.tag(t, "alice", tw.entity())
		tw.route()
		tw.interest(0, content(m, 1, alice))
		tw.settle(t)
		tw.data(&ndn.Data{Name: m.content.Meta.Name, Content: m.content, Tag: alice, Nack: true, NackReason: core.ErrTagForged})
		_, got := tw.settle(t)
		if len(got[0]) != 1 || !got[0][0].Nack || got[0][0].Content != nil || !errors.Is(got[0][0].NackReason, core.ErrTagForged) {
			t.Fatalf("client got %+v, want one forged NACK without content", got[0])
		}
	})
}

// TestPlanesCSHitAdmission: a content-store hit whose tag needs a
// signature check passes the same per-face admission budget as an edge
// verification: with one verification outstanding, the next is shed.
func TestPlanesCSHitAdmission(t *testing.T) {
	onBothPlanes(t, twinOpts{budget: 1, hold: true}, func(t *testing.T, m *twinMaterial, tw twin) {
		alice, bob := m.tag(t, "alice", tw.entity()), m.tag(t, "bob", tw.entity())
		tw.data(&ndn.Data{Name: m.content.Meta.Name, Content: m.content}) // unsolicited: cached
		tw.settle(t)
		tw.interest(0, content(m, 1, alice))
		tw.interest(0, content(m, 2, bob))
		up, got := tw.settle(t)
		if len(up) != 0 {
			t.Errorf("CS hits reached the upstream: %v", nonces(up))
		}
		byUser := map[string]*ndn.Data{}
		for _, d := range got[0] {
			byUser[d.Tag.ClientKey.String()] = d
		}
		if d := byUser[alice.ClientKey.String()]; d == nil || d.Nack || d.Content == nil {
			t.Errorf("admitted CS hit answered %+v, want the content", d)
		}
		if d := byUser[bob.ClientKey.String()]; d == nil || !d.Nack || !errors.Is(d.NackReason, core.ErrOverload) {
			t.Errorf("over-budget CS hit answered %+v, want an Overload NACK", d)
		}
	})
}

// TestPlanesAccessPathStamp: the requester's first on-path entity (the
// sim access point, the live edge) resets and stamps the access path, so
// a pre-loaded value neither denies a correctly bound tag nor travels
// upstream; the forwarding pipeline itself never stamps.
func TestPlanesAccessPathStamp(t *testing.T) {
	onBothPlanes(t, twinOpts{edge: true}, func(t *testing.T, m *twinMaterial, tw twin) {
		alice := m.tag(t, "alice", tw.entity())
		tw.route()
		i := content(m, 1, alice)
		i.AccessPath = core.EmptyAccessPath.Accumulate("somewhere-else")
		tw.interest(0, i)
		up, got := tw.settle(t)
		if len(got[0]) != 0 || len(up) != 1 {
			t.Fatalf("client got %+v, upstream %v; want the Interest forwarded", got[0], nonces(up))
		}
		if want := core.EmptyAccessPath.Accumulate(tw.entity()); up[0].AccessPath != want {
			t.Errorf("forwarded access path %v, want the first hop's %v", up[0].AccessPath, want)
		}
	})
}
