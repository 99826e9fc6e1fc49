package forwarder

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pipeline"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// closingFace is an upstream face whose Interest sends fail once it is
// marked closed, while it stays attached.
type closingFace struct {
	transport.Face
	closed atomic.Bool
}

func (c *closingFace) SendInterest(i *ndn.Interest) error {
	if c.closed.Load() {
		return net.ErrClosed
	}
	return c.Face.SendInterest(i)
}

// TestRetransmitSendFailureCounted: a retransmission the edge re-forwards
// over an upstream face that can no longer send is a drop, counted in
// Stats and under tactic_drops_total{cause="send_error"} like a failed
// primary forward.
func TestRetransmitSendFailureCounted(t *testing.T) {
	reg := obs.NewRegistry()
	f, err := New(Config{ID: "edge-rt", Role: RoleCore, Registry: pki.NewRegistry(), Obs: reg, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	upTest, upFwd := net.Pipe()
	defer upTest.Close()
	up := transport.New(upTest)
	face := &closingFace{Face: transport.New(upFwd)}
	name := names.MustParse("/prov0/obj/c0")
	f.AddRoute(names.MustParse("/prov0"), f.AddFace(face, false))

	cliTest, cliFwd := net.Pipe()
	defer cliTest.Close()
	cli := transport.New(cliTest)
	f.AddFace(transport.New(cliFwd), true)

	if err := cli.SendInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	upTest.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // pipes support deadlines
	if pkt, err := up.Receive(); err != nil || pkt.Interest == nil {
		t.Fatalf("upstream did not see the Interest: %+v, %v", pkt, err)
	}
	face.closed.Store(true)
	if err := cli.SendInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: 2}); err != nil {
		t.Fatal(err)
	}
	sendErrs := reg.Counter(MetricDrops, obs.L("role", "core"), obs.L("cause", pipeline.DropSendErr))
	waitFor(t, "the failed retransmission to be counted", func() bool {
		return f.Stats().Drops == 1 && sendErrs.Value() == 1
	})
}
