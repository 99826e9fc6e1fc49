package network

import (
	"errors"
	"math/rand"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/metrics"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pipeline"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/topology"
)

// RouterConfig parameterises a TACTIC router node.
type RouterConfig struct {
	// BFCapacity is the Bloom filter's design capacity (items indexed);
	// the paper sweeps 500-10000.
	BFCapacity int
	// BFMaxFPP is the saturation threshold triggering auto-reset; the
	// paper's default is 1e-4.
	BFMaxFPP float64
	// CSCapacity is the content-store size in chunks; 0 disables caching
	// (edge routers in the paper's model do not cache).
	CSCapacity int
	// PITLifetime bounds pending-Interest entries.
	PITLifetime time.Duration
	// BFDesignFPP, when non-zero, sizes the Bloom filter for BFCapacity
	// items at this design FPP while keeping BFMaxFPP as the saturation
	// threshold (paper-fidelity mode; see bloom.NewPaperWithDesign).
	BFDesignFPP float64
	// Comparators are the baseline and ablation switches
	// (DisableEnforcement, NoPrivateCache, DropContentOnNACK, Colluding).
	pipeline.Comparators
	// Traitor, when non-nil, receives every access-path mismatch the
	// edge observes (the paper's future-work traitor-tracing feature;
	// typically one detector shared by all edge routers of an ISP).
	Traitor *core.TraitorDetector
	// VerifyBudget, when positive, mirrors the live forwarder's per-face
	// verification admission control: a face may have at most this many
	// signature verifications outstanding (completion instant still in
	// the virtual future), whether for an edge Interest or a content-store
	// hit; requests beyond the budget are shed with an Overload NACK.
	// Zero keeps the pre-admission behaviour, so existing experiment
	// reproductions are untouched. Tactic.DisableAdmission forces it off
	// regardless (the "forgot to cap" ablation).
	VerifyBudget int
	// Tactic selects protocol features (ablations).
	Tactic core.Config
}

// RouterNode is a TACTIC router in the simulated network: the shared
// forwarding pipeline (internal/pipeline) driven on the virtual clock.
// The node itself is the pipeline's I/O: it schedules the packets the
// pipeline emits on the topology's links, charges the modeled Bloom
// filter and signature delays, verifies parked Interests inline under
// the per-face admission budget, and records sim trace spans.
type RouterNode struct {
	net    *Network
	index  int
	isEdge bool
	tactic *enforce.Router
	pipe   *pipeline.Pipeline
	cs     *ndn.CS
	cfg    RouterConfig
	rng    *rand.Rand

	interests uint64
	dataSeen  uint64
	nacksSent uint64
	drops     map[string]uint64
	// verifyPending tracks, per arrival face, the virtual completion
	// instants of outstanding signature verifications — the sim mirror of
	// the live verify pool's parked+in-flight occupancy. Entries at or
	// before "now" have retired and are pruned on the next admission
	// check. Only populated when the admission budget is active.
	verifyPending map[ndn.FaceID][]time.Time
	opCount       uint64
	// cpuBusyUntil serialises computational delays: a router is a
	// single processing pipeline, so a burst of signature verifications
	// (e.g. after a Bloom-filter reset) delays subsequent packets — the
	// mechanism behind the paper's Fig. 5 latency spikes.
	cpuBusyUntil time.Time
	// proc is the packet in hand's wait from now until its processing
	// completes; bf and verifs are the operation counts already charged.
	proc   time.Duration
	bf     bloom.Stats
	verifs uint64
}

// pitGCStride amortises lazy PIT expiry.
const pitGCStride = 2048

// NewRouterNode creates a router for graph node index. isEdge selects
// the Protocol 2 role; verifier is the shared trust registry.
func NewRouterNode(net *Network, index int, isEdge bool, verifier pki.Verifier, rng *rand.Rand, cfg RouterConfig) (*RouterNode, error) {
	bf, err := newRouterFilter(cfg)
	if err != nil {
		return nil, err
	}
	id := net.Graph.Nodes[index].ID
	r := &RouterNode{
		net:    net,
		index:  index,
		isEdge: isEdge,
		tactic: enforce.NewRouter(id, bf, core.NewTagValidator(verifier), rng, cfg.Tactic),
		cs:     ndn.NewCS(cfg.CSCapacity),
		cfg:    cfg,
		rng:    rng,
		drops:  make(map[string]uint64),

		verifyPending: make(map[ndn.FaceID][]time.Time),
	}
	r.pipe = pipeline.New(r.tactic, r.cs, (*routerSink)(r), isEdge, cfg.PITLifetime, cfg.Comparators)
	return r, nil
}

var _ Node = (*RouterNode)(nil)

// newRouterFilter builds a router's Bloom filter per the configured
// sizing mode.
func newRouterFilter(cfg RouterConfig) (*bloom.Filter, error) {
	if cfg.BFDesignFPP > 0 {
		return bloom.NewPaperWithDesign(cfg.BFCapacity, cfg.BFDesignFPP, cfg.BFMaxFPP)
	}
	return bloom.NewPaper(cfg.BFCapacity, cfg.BFMaxFPP)
}

// FIB exposes the router's FIB for route installation.
func (r *RouterNode) FIB() *ndn.LockedFIB { return r.pipe.FIB() }

// Index returns the router's graph index.
func (r *RouterNode) Index() int { return r.index }

// Tactic exposes the TACTIC state for tests and metrics.
func (r *RouterNode) Tactic() *enforce.Router { return r.tactic }

// IsEdge reports the router's role.
func (r *RouterNode) IsEdge() bool { return r.isEdge }

// CSNames returns the names currently held in the content store, in
// unspecified order — the conformance oracle's end-state cache view.
func (r *RouterNode) CSNames() []string { return r.cs.Names() }

// id returns the router's topology node identity.
func (r *RouterNode) id() string { return r.net.Graph.Nodes[r.index].ID }

// role names the router's role for span records.
func (r *RouterNode) role() string {
	if r.isEdge {
		return "edge"
	}
	return "core"
}

// cpuWait books work on the router CPU and returns the delay from now
// until it finishes.
func (r *RouterNode) cpuWait(work time.Duration) time.Duration {
	now := r.net.Engine.Now()
	start := now
	if r.cpuBusyUntil.After(start) {
		start = r.cpuBusyUntil
	}
	end := start.Add(work)
	r.cpuBusyUntil = end
	return end.Sub(now)
}

// verifyBudget returns the per-face verify admission budget; 0 means
// admission is off (either unconfigured or the DisableAdmission
// ablation).
func (r *RouterNode) verifyBudget() int {
	if r.cfg.Tactic.DisableAdmission {
		return 0
	}
	return r.cfg.VerifyBudget
}

// outstandingVerifies prunes the face's retired verifications and
// returns how many are still outstanding at now.
func (r *RouterNode) outstandingVerifies(from ndn.FaceID, now time.Time) int {
	kept := r.verifyPending[from][:0]
	for _, done := range r.verifyPending[from] {
		if done.After(now) {
			kept = append(kept, done)
		}
	}
	r.verifyPending[from] = kept
	return len(kept)
}

// HandleInterest runs an Interest through the router's pipeline.
func (r *RouterNode) HandleInterest(i *ndn.Interest, from ndn.FaceID) {
	r.interests++
	r.opCount++
	if r.opCount%pitGCStride == 0 {
		r.pipe.PIT().ExpireBefore(r.net.Engine.Now())
	}
	r.pipe.Interest(i, r.packet(i.Trace, "interest", i.Name, from))
}

// HandleData runs a Data through the router's pipeline.
func (r *RouterNode) HandleData(d *ndn.Data, from ndn.FaceID) {
	r.dataSeen++
	r.pipe.Data(d, r.packet(d.Trace, "data", d.Name, from))
}

// packet opens a packet's pass: a fresh processing charge and, when the
// packet is traced, its hop span.
func (r *RouterNode) packet(tc ndn.TraceContext, kind string, name names.Name, from ndn.FaceID) pipeline.Packet {
	r.proc = 0
	r.bf, r.verifs = r.tactic.Bloom().Stats(), r.tactic.Validator().Verifications()
	pkt := pipeline.Packet{
		From:       from,
		Downstream: r.net.PeerKind(r.index, from) == topology.KindAccessPoint,
		Now:        r.net.Engine.Now(),
		Trace:      NextHopTrace(tc, nil),
	}
	if r.net.Tracing() {
		if sp := r.net.StartTraceSpan(tc, r.id(), r.role(), kind, name.String()); sp != nil {
			pkt.Span, pkt.Trace = sp, sp.WireContext()
		}
	}
	return pkt
}

// routerSink is the RouterNode seen as the pipeline's Sink.
type routerSink RouterNode

func span(s any) *SimSpan {
	sp, _ := s.(*SimSpan)
	return sp
}

// charge samples the modeled delay of the Bloom-filter and signature
// operations the pipeline performed since the last charge and books it
// on the router CPU (after any earlier burst): proc becomes the wait
// from now until the packet's processing completes. A packet that did
// no such work is not delayed. The RNG draws depend only on the
// operation counts, so tracing never perturbs a run.
func (s *routerSink) charge(sp *SimSpan) {
	r := (*RouterNode)(s)
	bf, verifs := r.tactic.Bloom().Stats(), r.tactic.Validator().Verifications()
	lk, ins, vf := r.net.SampleOpsSplit(r.rng, bf.Lookups-r.bf.Lookups, bf.Insertions-r.bf.Insertions, verifs-r.verifs)
	r.bf, r.verifs = bf, verifs
	for _, ev := range [...]struct {
		stage string
		d     time.Duration
	}{{"bf_lookup", lk}, {"bf_insert", ins}, {"verify", vf}} {
		if ev.d > 0 {
			sp.Event(ev.stage, ev.d, "")
		}
	}
	work := lk + ins + vf
	if work == 0 {
		return
	}
	before := r.proc
	r.proc = r.cpuWait(work)
	if q := r.proc - before - work; q > 0 {
		sp.Event("queue", q, "")
	}
}

func (s *routerSink) SendData(sp any, face ndn.FaceID, d *ndn.Data) {
	s.charge(span(sp))
	s.net.SendData(s.index, face, d, s.proc)
}

func (s *routerSink) SendInterest(sp any, face ndn.FaceID, i *ndn.Interest) error {
	s.charge(span(sp))
	s.net.SendInterest(s.index, face, i, s.proc)
	return nil
}

// Nack counts a denial; one that stops an Interest at this hop also
// counts as a drop under its reason and feeds the traitor detector.
func (s *routerSink) Nack(reason error, i *ndn.Interest) {
	s.nacksSent++
	if i == nil {
		return
	}
	s.drops[reasonString(reason)]++
	if s.cfg.Traitor != nil && errors.Is(reason, core.ErrAccessPathMismatch) {
		s.cfg.Traitor.Observe(i.Tag, i.AccessPath)
	}
}

func (s *routerSink) Drop(cause string) { s.drops[cause]++ }

// Park verifies inline: the simulator has no worker pool, only the
// admission budget, charged against the verification's virtual
// completion instant.
func (s *routerSink) Park(j *pipeline.Job) bool {
	r := (*RouterNode)(s)
	budget := r.verifyBudget()
	if budget > 0 && r.outstandingVerifies(j.From, j.Now) >= budget {
		return false
	}
	r.pipe.Resume(j)
	if budget > 0 {
		r.verifyPending[j.From] = append(r.verifyPending[j.From], j.Now.Add(r.proc))
	}
	return true
}

func (s *routerSink) Event(sp any, stage, detail string, _ time.Time) {
	span(sp).Event(stage, 0, detail)
}

func (s *routerSink) End(sp any, outcome, detail string) {
	t := span(sp)
	s.charge(t)
	if t != nil {
		if detail != "" {
			outcome += ":" + detail
		}
		t.End(outcome, s.proc)
	}
}

// Stats snapshots the router's counters.
type RouterNodeStats struct {
	// Ops are the Fig. 7 / Fig. 8 / Table V operation counters.
	Ops metrics.RouterOps
	// Interests and Data count packets processed.
	Interests, Data uint64
	// NACKsSent counts invalidity signals emitted.
	NACKsSent uint64
	// Drops tallies dropped packets by reason.
	Drops map[string]uint64
	// CSHits/CSMisses are content-store statistics.
	CSHits, CSMisses uint64
	// PITCreated/PITAggregated/PITExpired are PIT statistics.
	PITCreated, PITAggregated, PITExpired uint64
}

// Stats returns a copy of the router's counters.
func (r *RouterNode) Stats() RouterNodeStats {
	bf := r.tactic.Bloom().Stats()
	hits, misses, _ := r.cs.Stats()
	created, aggregated, expired := r.pipe.PIT().Stats()
	drops := make(map[string]uint64, len(r.drops))
	for k, v := range r.drops {
		drops[k] = v
	}
	return RouterNodeStats{
		Ops: metrics.RouterOps{
			Lookups:         bf.Lookups,
			Insertions:      bf.Insertions,
			Verifications:   r.tactic.Validator().Verifications(),
			Resets:          bf.Resets,
			ResetThresholds: r.tactic.Bloom().ResetThresholds(),
		},
		Interests:  r.interests,
		Data:       r.dataSeen,
		NACKsSent:  r.nacksSent,
		Drops:      drops,
		CSHits:     hits,
		CSMisses:   misses,
		PITCreated: created, PITAggregated: aggregated, PITExpired: expired,
	}
}

// reasonString maps a drop reason to a stable metric key.
func reasonString(err error) string {
	if err == nil {
		return "unknown"
	}
	switch {
	case errors.Is(err, core.ErrAccessPathMismatch):
		return "access-path-mismatch"
	case errors.Is(err, core.ErrTagExpired):
		return "tag-expired"
	case errors.Is(err, core.ErrPrefixMismatch):
		return "prefix-mismatch"
	case errors.Is(err, core.ErrTagForged):
		return "tag-forged"
	case errors.Is(err, core.ErrInsufficientLevel):
		return "insufficient-level"
	case errors.Is(err, core.ErrProviderKeyMismatch):
		return "provider-key-mismatch"
	case errors.Is(err, core.ErrTagRevoked):
		return "tag-revoked"
	case errors.Is(err, core.ErrNoTag):
		return "no-tag"
	case errors.Is(err, core.ErrOverload):
		return "overload"
	default:
		return "invalid"
	}
}
