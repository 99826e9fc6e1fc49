package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/transport"
)

// attacker is the verify-flood adversary: one raw face into the edge
// sending Interests open loop at a fixed rate, each carrying a fresh
// forged tag — valid provider key, level, access path and expiry, a
// never-seen client key, and a signature that does not verify. Every
// such tag misses the edge's Bloom filter and costs a full signature
// check unless the edge sheds it. (A repeated forged tag would be cheap:
// concurrent copies of one tag share a verification.)
type attacker struct {
	face   transport.Face
	rate   float64
	names  []names.Name
	ap     core.AccessPath
	provLo names.Name
	sig    []byte
	serial uint64
	rng    *rand.Rand

	sent      atomic.Int64
	sheds     atomic.Int64 // Overload NACKs received
	nacked    atomic.Int64 // other NACKs (failed verification)
	delivered atomic.Int64 // content without a NACK: a hard error

	// lag is the generator's lateness per Interest (send time minus due
	// time, ns), recorded while recording is set; lagMu guards it.
	recording atomic.Bool
	lagMu     sync.Mutex
	lag       []float64

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// startAttacker dials the edge and starts a flood of rate Interests per
// second. Forged-key serials and the requested names are drawn from
// seed.
func startAttacker(edgeAddr string, m *material, rate float64, seed int64) (*attacker, error) {
	// The forged tags borrow the signature of a genuine tag issued to a
	// different key, so the signature is well formed but wrong.
	donor, err := core.IssueTag(m.provKey, names.MustNew("users", "donor", "KEY", "1"), clientLevel,
		core.EmptyAccessPath.Accumulate(edgeID), time.Now().Add(tagTTL))
	if err != nil {
		return nil, err
	}
	face, err := transport.DialFace(edgeAddr, transport.UDPOptions{})
	if err != nil {
		return nil, fmt.Errorf("attacker: dial edge: %w", err)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x0a77ac4e))
	a := &attacker{
		face: face, rate: rate, names: m.names,
		ap: donor.AccessPath, provLo: m.provKey.Locator(), sig: donor.Signature,
		serial: rng.Uint64() >> 16, rng: rng,
		stop: make(chan struct{}),
	}
	a.wg.Add(2)
	go a.read()
	go a.send()
	return a, nil
}

// send issues Interests on a fixed schedule: Interest k is due at
// start + k/rate. A late generator catches up in a burst, and each
// Interest's lateness is recorded.
func (a *attacker) send() {
	defer a.wg.Done()
	if a.rate <= 0 {
		return
	}
	start := time.Now()
	expiry := start.Add(tagTTL)
	for k := int64(0); ; k++ {
		due := start.Add(time.Duration(float64(k) * float64(time.Second) / a.rate))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case <-a.stop:
			return
		default:
		}
		a.serial++
		tag := &core.Tag{
			ProviderKey: a.provLo,
			Level:       clientLevel,
			ClientKey:   names.MustNew("users", "atk", strconv.FormatUint(a.serial, 16), "KEY", "1"),
			AccessPath:  a.ap,
			Expiry:      expiry,
			Signature:   a.sig,
		}
		i := &ndn.Interest{
			Name:  a.names[a.rng.Intn(len(a.names))],
			Kind:  ndn.KindContent,
			Nonce: 1<<63 | a.serial,
			Tag:   tag,
		}
		if err := a.face.SendInterest(i); err != nil {
			return
		}
		a.sent.Add(1)
		if a.recording.Load() {
			late := time.Since(due)
			a.lagMu.Lock()
			a.lag = append(a.lag, float64(late))
			a.lagMu.Unlock()
		}
	}
}

// read drains the edge's answers and classifies them.
func (a *attacker) read() {
	defer a.wg.Done()
	for {
		pkt, err := a.face.Receive()
		if err != nil {
			return
		}
		d := pkt.Data
		switch {
		case d == nil:
		case d.Nack && errors.Is(d.NackReason, core.ErrOverload):
			a.sheds.Add(1)
		case d.Nack || d.Content == nil:
			// A failed verification answers with a NACK, carrying the
			// ciphertext when the name was cached (the paper's §5.B
			// trade-off); the client cannot use either.
			a.nacked.Add(1)
		default:
			a.delivered.Add(1)
		}
	}
}

// recordLag turns lateness recording on or off.
func (a *attacker) recordLag(on bool) { a.recording.Store(on) }

// lagSamples returns a copy of the recorded lateness samples (ns).
func (a *attacker) lagSamples() []float64 {
	a.lagMu.Lock()
	defer a.lagMu.Unlock()
	return append([]float64(nil), a.lag...)
}

// close stops the generator, closes the face and waits for both
// goroutines.
func (a *attacker) close() {
	a.once.Do(func() { close(a.stop) })
	a.face.Close()
	a.wg.Wait()
}

// describe prints the flood's offered and achieved load for a window.
func (a *attacker) describe(w io.Writer, res *windowResult) {
	sent := res.after.attackSent - res.before.attackSent
	sheds := res.after.edge.VerifySheds - res.before.edge.VerifySheds
	fmt.Fprintf(w, "flood: offered %.0f/s, sent %.0f/s, edge shed %d (%.1f%% of sent), %d forged answers with content, generator lag p99 %.0f µs\n",
		a.rate, float64(sent)/res.wall.Seconds(), sheds, 100*ratio(float64(sheds), float64(sent)),
		a.delivered.Load(), res.lagP99us)
}
