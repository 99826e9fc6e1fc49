// Package pipeline is the NDN forwarding state machine both planes run:
// CS -> PIT -> FIB for Interests, PIT fan-out for Data, with TACTIC's
// Protocols 2-4 spliced in through enforce.Router. A Pipeline owns the
// PIT and FIB, consults and fills a content store, and makes every
// enforcement call; it reports each decision — send a Data, Interest or
// NACK on a face, drop with a cause, park an Interest for signature
// verification — to a Sink the plane supplies. The planes differ only in
// their sinks: the simulator charges modeled delays and schedules link
// events on its virtual clock, the live forwarder writes to sockets,
// counts metrics and hands parked Interests to its verification pool,
// which finishes them with Resume.
//
// A Pipeline synchronises nothing itself: the PIT is sharded, the FIB
// read-locked, the content store is the plane's, and enforce.Router is
// safe for concurrent use, so the live plane calls it from every face
// reader and verify worker at once.
package pipeline

import (
	"errors"
	"strconv"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
)

// Drop causes reported through Sink.Drop; they are the
// tactic_drops_total "cause" labels.
const (
	DropDupNonce      = "dup_nonce"
	DropNoRoute       = "no_route"
	DropNoFace        = "no_face"
	DropUnsolicited   = "unsolicited"
	DropUndeliverable = "undeliverable"
	DropSendErr       = "send_error"
)

// DropCauses lists every drop cause, so instrumentation can pre-create
// one counter per cause.
func DropCauses() []string {
	return []string{DropDupNonce, DropNoRoute, DropNoFace, DropUnsolicited, DropUndeliverable, DropSendErr}
}

// OutcomeCSHit is the Sink.End outcome of an Interest answered from the
// content store with the content alone.
const OutcomeCSHit = "cs_hit"

// Stages timed for Packet.Timed packets (Sink.Event with a start time):
// the CS/PIT lookups and the send of a CS hit or forwarded Interest.
const (
	StagePITCS      = "pit_cs"
	StageEncodeSend = "encode_send"
)

// ErrNoFace is what a Sink's SendInterest returns for a face that is no
// longer attached; the pipeline counts it under DropNoFace rather than
// DropSendErr.
var ErrNoFace = errors.New("pipeline: face detached")

// CS is the content store the pipeline consults and fills: the
// simulator's global-LRU ndn.CS or the live plane's ndn.ShardedCS.
type CS interface {
	Lookup(name names.Name) (*core.Content, bool)
	Insert(content *core.Content)
}

// Comparators are the simulator's baseline and ablation switches; the
// live plane runs with all of them off.
type Comparators struct {
	// DisableEnforcement turns off all router-side tag processing:
	// every request is served (baselines OpenNDN / ClientSideAC).
	DisableEnforcement bool
	// NoPrivateCache prevents caching and cache-serving of non-Public
	// content, forcing private requests to the origin (baseline
	// ProviderAuthAC).
	NoPrivateCache bool
	// DropContentOnNACK makes a content router answer an invalid tag
	// with a pure NACK instead of the paper's content-plus-NACK
	// (ablation "DropOnNACK"; starves valid aggregated requests
	// downstream).
	DropContentOnNACK bool
	// Colluding models threat (f) of the paper's threat model: "an
	// unreliable router that delivers a content to unauthorized users"
	// (§3.C) — the compromised-ISP-router collusion §6 concedes breaks
	// TACTIC ("a malicious ISP router can collude with a revoked client
	// to deliver him the encrypted content"). A colluding edge skips
	// Protocol 2 entirely and delivers NACKed content anyway. The
	// experiment suite quantifies the blast radius (only users behind
	// the compromised edge benefit).
	Colluding bool
}

// Packet is one packet's pass through the pipeline: the plane fills it
// on arrival and receives it back with every decision.
type Packet struct {
	// From is the arrival face.
	From ndn.FaceID
	// Now is the protocol time of arrival: expiry and PIT lifetimes are
	// judged against it, even for an Interest resumed after parking.
	Now time.Time
	// Trace is the trace context stamped on everything this hop emits.
	Trace ndn.TraceContext
	// Span is the plane's trace span for the packet, nil when untraced;
	// the pipeline only tests it for nil and hands it back.
	Span any
	// Downstream marks a client-side arrival face, where an edge runs
	// Protocol 2.
	Downstream bool
	// Timed asks for the StagePITCS / StageEncodeSend wall-clock timings.
	Timed bool
}

// Job is an Interest parked for signature verification. The plane may
// run Resume on it from any goroutine, once.
type Job struct {
	Packet
	Interest *ndn.Interest
	// Parked is the plane's enqueue instant.
	Parked time.Time
	// content is the CS hit awaiting its verdict; nil for an edge
	// Protocol 2 verification.
	content *core.Content
	// flag is the effective F for the content verdict.
	flag float64
}

// Sink receives the pipeline's decisions for one plane. span is the
// Packet.Span of the packet being decided.
type Sink interface {
	// SendData emits d on face.
	SendData(span any, face ndn.FaceID, d *ndn.Data)
	// SendInterest forwards i on face. An error means it never left
	// (ErrNoFace for a detached face).
	SendInterest(span any, face ndn.FaceID, i *ndn.Interest) error
	// Nack counts a denial this router decided; the NACK itself follows
	// through SendData. i is the Interest when the denial stops it at
	// this hop (Protocol 2 or a verification shed), nil for a
	// content-router or aggregated-record verdict.
	Nack(reason error, i *ndn.Interest)
	// Drop counts a packet, or one PIT record of it, dropped for cause.
	Drop(cause string)
	// Park hands an Interest whose verdict needs a signature check to
	// the plane's verifier, which must finish it with Resume. False sheds
	// it (its face is over the verification budget): the pipeline NACKs
	// it with core.ErrOverload.
	Park(j *Job) bool
	// Event annotates the packet's trace. start is non-zero for a timed
	// stage that ends now.
	Event(span any, stage, detail string, start time.Time)
	// End closes the packet's pass (outcome, plus a reason or cause
	// detail). Every Interest and Data gets exactly one, a parked
	// Interest when its Resume finishes.
	End(span any, outcome, detail string)
}

// Pipeline is one router's forwarding state machine.
type Pipeline struct {
	router   *enforce.Router
	fib      *ndn.LockedFIB
	pit      *ndn.ShardedPIT
	cs       CS
	sink     Sink
	edge     bool
	lifetime time.Duration
	cmp      Comparators
}

// New creates a pipeline over router and cs with an empty PIT and FIB.
// edge selects the Protocol 2 role; pitLifetime bounds pending Interests.
func New(router *enforce.Router, cs CS, sink Sink, edge bool, pitLifetime time.Duration, cmp Comparators) *Pipeline {
	return &Pipeline{
		router:   router,
		fib:      ndn.NewLockedFIB(),
		pit:      ndn.NewShardedPIT(),
		cs:       cs,
		sink:     sink,
		edge:     edge,
		lifetime: pitLifetime,
		cmp:      cmp,
	}
}

// FIB exposes the routes for installation and face-death cleanup.
func (p *Pipeline) FIB() *ndn.LockedFIB { return p.fib }

// PIT exposes the pending Interests for expiry and face-death cleanup.
func (p *Pipeline) PIT() *ndn.ShardedPIT { return p.pit }

// Interest runs the Interest pipeline: Protocol 2 at an edge's client
// faces, then the content store (Protocol 3), then PIT and FIB. The
// access path is already stamped by the first on-path entity.
func (p *Pipeline) Interest(i *ndn.Interest, pkt Packet) {
	if i.Kind == ndn.KindContent && p.edge && pkt.Downstream && !p.cmp.DisableEnforcement && !p.cmp.Colluding {
		var start time.Time
		if pkt.Span != nil {
			start = time.Now()
		}
		dec := p.router.EdgeOnInterestFast(i.Tag, i.AccessPath, i.Name, pkt.Now)
		if pkt.Span != nil {
			p.sink.Event(pkt.Span, "precheck", labelOr(dec.Reason, "ok"), time.Time{})
			p.sink.Event(pkt.Span, "bf_lookup", hitOrMiss(dec.BFHit), start)
		}
		if dec.Denied() {
			p.deny(i, &pkt, dec.Reason)
			return
		}
		if dec.NeedsVerify() {
			p.park(&Job{Packet: pkt, Interest: i})
			return
		}
		p.setFlag(i, &pkt, dec.Flag)
	} else if i.Flag != 0 && pkt.Span != nil {
		// A core hop sees the edge's collaboration flag on the wire.
		p.sink.Event(pkt.Span, "flag", FormatFlag(i.Flag), time.Time{})
	}
	p.tables(i, &pkt)
}

// Resume finishes a parked Job: the signature check, then the rest of
// its Interest's pipeline.
func (p *Pipeline) Resume(j *Job) {
	i, pkt := j.Interest, &j.Packet
	if j.content != nil {
		dec := p.router.ContentVerifyMiss(i.Tag, j.flag, pkt.Now)
		p.noteVerify(pkt, dec)
		p.contentHit(i, pkt, j.content, dec)
		return
	}
	dec := p.router.EdgeVerifyMiss(i.Tag, pkt.Now)
	p.noteVerify(pkt, dec)
	if dec.Denied() {
		p.deny(i, pkt, dec.Reason)
		return
	}
	p.setFlag(i, pkt, dec.Flag)
	p.tables(i, pkt)
}

// Deny NACKs a parked Job with reason instead of verifying it (its face
// died, its tag was revoked, or the verifier shut down).
func (p *Pipeline) Deny(j *Job, reason error) { p.deny(j.Interest, &j.Packet, reason) }

func (p *Pipeline) noteVerify(pkt *Packet, dec enforce.Verdict) {
	if pkt.Span != nil {
		detail := "ok"
		if dec.Denied() {
			detail = "fail"
		}
		p.sink.Event(pkt.Span, "verify", detail, time.Time{})
	}
}

func (p *Pipeline) setFlag(i *ndn.Interest, pkt *Packet, flag float64) {
	i.Flag = flag
	if pkt.Span != nil {
		p.sink.Event(pkt.Span, "flag", FormatFlag(flag), time.Time{})
	}
}

// deny NACKs an Interest back to its arrival face.
func (p *Pipeline) deny(i *ndn.Interest, pkt *Packet, reason error) {
	p.sink.Nack(reason, i)
	p.sink.SendData(pkt.Span, pkt.From, &ndn.Data{Name: i.Name, Tag: i.Tag, Nack: true, NackReason: reason, Trace: pkt.Trace})
	p.sink.End(pkt.Span, "nack", core.ReasonLabel(reason))
}

// park hands j to the plane's verifier, shedding it with an Overload
// NACK when its face is over budget.
func (p *Pipeline) park(j *Job) {
	// Annotate first: once Park admits it the job belongs to the verifier.
	if j.Span != nil {
		p.sink.Event(j.Span, "park", "verify", time.Time{})
	}
	if !p.sink.Park(j) {
		p.deny(j.Interest, &j.Packet, core.ErrOverload)
	}
}

// drop counts a dropped packet and ends its pass.
func (p *Pipeline) drop(pkt *Packet, cause string) {
	p.sink.Drop(cause)
	p.sink.End(pkt.Span, "drop", cause)
}

// cacheable reports whether this router may cache and serve the content
// (ProviderAuthAC forbids it for private content).
func (p *Pipeline) cacheable(c *core.Content) bool {
	return !p.cmp.NoPrivateCache || c.Meta.Level == core.Public
}

// clock starts a stage timing when the plane asked for one.
func clock(pkt *Packet) time.Time {
	if pkt.Timed {
		return time.Now()
	}
	return time.Time{}
}

// stage reports a timed stage that started at start.
func (p *Pipeline) stage(pkt *Packet, stage string, start time.Time) {
	if !start.IsZero() {
		p.sink.Event(pkt.Span, stage, "", start)
	}
}

// tables is the Interest pipeline after Protocol 2: content-store
// lookup, PIT admission, FIB resolution, forward.
func (p *Pipeline) tables(i *ndn.Interest, pkt *Packet) {
	start := clock(pkt)
	if i.Kind == ndn.KindContent {
		if content, ok := p.cs.Lookup(i.Name); ok && p.cacheable(content) {
			p.stage(pkt, StagePITCS, start)
			p.csHit(i, pkt, content)
			return
		}
	}
	outcome, out := p.pit.Admit(i.Name,
		ndn.PITRecord{Tag: i.Tag, Flag: i.Flag, InFace: pkt.From, Nonce: i.Nonce, Arrived: pkt.Now},
		pkt.Now, pkt.Now.Add(p.lifetime))
	p.stage(pkt, StagePITCS, start)
	switch outcome {
	case ndn.PITDuplicate:
		p.drop(pkt, DropDupNonce)
		return
	case ndn.PITRetransmit:
		// The requester retransmitted: re-send upstream as well, so an
		// Interest lost on the uplink is recovered instead of
		// black-holing every requester until the entry expires. While the
		// primary forward is still in flight there is nothing to recover.
		if out != ndn.FaceNone && !p.forward(i, pkt, out) {
			return
		}
		fallthrough
	case ndn.PITAggregated:
		p.sink.End(pkt.Span, "aggregated", "")
		return
	}
	// A fresh entry: an Interest that cannot be forwarded consumes it
	// again, so a retransmission re-forwards instead of aggregating onto
	// a dead entry for a full PIT lifetime.
	face, ok := p.fib.Lookup(i.Name)
	if !ok {
		p.pit.Consume(i.Name)
		p.drop(pkt, DropNoRoute)
		return
	}
	p.pit.SetOutFace(i.Name, face)
	if !p.forward(i, pkt, face) {
		p.pit.Consume(i.Name)
		return
	}
	p.sink.End(pkt.Span, "forwarded", "")
}

// forward sends i upstream on face. A failed send is dropped (and the
// pass ended) under DropNoFace or DropSendErr.
func (p *Pipeline) forward(i *ndn.Interest, pkt *Packet, face ndn.FaceID) bool {
	start := clock(pkt)
	i.Trace = pkt.Trace
	if err := p.sink.SendInterest(pkt.Span, face, i); err != nil {
		cause := DropSendErr
		if errors.Is(err, ErrNoFace) {
			cause = DropNoFace
		}
		p.drop(pkt, cause)
		return false
	}
	p.stage(pkt, StageEncodeSend, start)
	return true
}

// csHit runs Protocol 3 for a content-store hit, parking the Interest
// when the verdict needs a signature check.
func (p *Pipeline) csHit(i *ndn.Interest, pkt *Packet, content *core.Content) {
	if p.cmp.DisableEnforcement {
		p.contentHit(i, pkt, content, enforce.Verdict{Flag: i.Flag})
		return
	}
	dec := p.router.ContentOnInterestFast(i.Tag, content.Meta, i.Flag, pkt.Now)
	if pkt.Span != nil {
		// The content-router verdict: on F != 0 whether the
		// probabilistic re-check fired; on F = 0 which check vouched.
		switch {
		case i.Flag != 0 && dec.NeedsVerify():
			p.sink.Event(pkt.Span, "flag_check", "recheck", time.Time{})
		case i.Flag != 0:
			p.sink.Event(pkt.Span, "flag_check", "recheck_skipped", time.Time{})
		case dec.BFHit:
			p.sink.Event(pkt.Span, "bf_lookup", "hit", time.Time{})
		}
	}
	if dec.NeedsVerify() {
		p.park(&Job{Packet: *pkt, Interest: i, content: content, flag: dec.Flag})
		return
	}
	p.contentHit(i, pkt, content, dec)
}

// contentHit answers a content-store hit with its verdict: the content,
// alongside a NACK when the tag failed (the paper's §5.B trade-off).
func (p *Pipeline) contentHit(i *ndn.Interest, pkt *Packet, content *core.Content, dec enforce.Verdict) {
	d := &ndn.Data{Name: i.Name, Content: content, Tag: i.Tag, Flag: dec.Flag,
		Nack: dec.Denied(), NackReason: dec.Reason, Trace: pkt.Trace}
	if d.Nack {
		p.sink.Nack(dec.Reason, nil)
		if p.cmp.DropContentOnNACK {
			d.Content = nil
		}
	}
	start := clock(pkt)
	p.sink.SendData(pkt.Span, pkt.From, d)
	p.stage(pkt, StageEncodeSend, start)
	if d.Nack {
		p.sink.End(pkt.Span, "nack", core.ReasonLabel(dec.Reason))
	} else {
		p.sink.End(pkt.Span, OutcomeCSHit, "")
	}
}

// Data runs the Data pipeline: cache, consume the PIT entry, and answer
// every record — Protocol 2's On-Content at an edge, Protocol 4 at a
// core router.
func (p *Pipeline) Data(d *ndn.Data, pkt Packet) {
	if d.Registration != nil {
		p.registration(d, &pkt)
		return
	}
	if d.Content != nil && p.cacheable(d.Content) {
		// Pervasive caching: every router on the reverse path caches.
		p.cs.Insert(d.Content)
	}
	entry, ok := p.pit.Consume(d.Name)
	if !ok {
		p.drop(&pkt, DropUnsolicited)
		return
	}
	for n, rec := range entry.Records {
		switch {
		case p.cmp.DisableEnforcement:
			p.sink.SendData(pkt.Span, rec.InFace, &ndn.Data{Name: d.Name, Content: d.Content, Tag: rec.Tag, Flag: d.Flag, Trace: pkt.Trace})
		case p.edge:
			p.edgeDeliver(d, rec, n == 0, &pkt)
		case n == 0:
			// Protocol 4 lines 6-10: the primary requester receives the
			// content as-is, NACK included.
			p.sink.SendData(pkt.Span, rec.InFace, &ndn.Data{Name: d.Name, Content: d.Content, Tag: rec.Tag,
				Flag: d.Flag, Nack: d.Nack, NackReason: d.NackReason, Trace: pkt.Trace})
		default:
			p.aggregate(d, rec, &pkt)
		}
	}
	if d.Nack {
		p.sink.End(pkt.Span, "relayed_nack", core.ReasonLabel(d.NackReason))
	} else {
		p.sink.End(pkt.Span, "delivered", "")
	}
}

// aggregate validates one aggregated PIT record at a core router
// (Protocol 4 lines 11-26) and sends it the content with its own
// verdict.
func (p *Pipeline) aggregate(d *ndn.Data, rec ndn.PITRecord, pkt *Packet) {
	out := &ndn.Data{Name: d.Name, Content: d.Content, Tag: rec.Tag, Flag: d.Flag, Trace: pkt.Trace}
	switch {
	case d.Content == nil:
		// A pure NACK (DropOnNACK upstream): nothing can be delivered;
		// propagate it.
		out.Nack, out.NackReason = true, d.NackReason
	case rec.Tag == nil:
		if d.Content.Meta.Level != core.Public {
			out.Nack, out.NackReason = true, core.ErrNoTag
			p.sink.Nack(core.ErrNoTag, nil)
		}
	default:
		dec := p.router.IntermediateOnAggregatedContent(rec.Tag, d.Content.Meta, rec.Flag, pkt.Now)
		out.Flag, out.Nack, out.NackReason = dec.Flag, dec.Denied(), dec.Reason
		if dec.Denied() {
			p.sink.Nack(dec.Reason, nil)
			if pkt.Span != nil {
				p.sink.Event(pkt.Span, "nack_aggregate", core.ReasonLabel(dec.Reason), time.Time{})
			}
		}
	}
	p.sink.SendData(pkt.Span, rec.InFace, out)
}

// edgeDeliver applies Protocol 2's On-Content checkpoint to one PIT
// record: it delivers the content, or drops it and NACKs a tagged client
// with the reason, so the client fails fast instead of timing out.
func (p *Pipeline) edgeDeliver(d *ndn.Data, rec ndn.PITRecord, primary bool, pkt *Packet) {
	deliver := d.Content != nil
	reason := d.NackReason
	switch {
	case rec.Tag == nil:
		// A tagless requester may receive Public content only.
		if !deliver || d.Nack || d.Content.Meta.Level != core.Public {
			if pkt.Span != nil {
				p.sink.Event(pkt.Span, "edge_drop", "no_tag", time.Time{})
			}
			p.sink.Drop(DropUndeliverable)
			return
		}
	case p.cmp.Colluding:
		// Threat (f): deliver regardless of the upstream verdict.
	case primary:
		deliver = !p.router.EdgeOnData(rec.Tag, d.Flag, d.Nack).Denied()
	case deliver:
		// An aggregated record's validity is independent of the primary
		// tag's NACK: the content rides along with NACKs precisely so
		// that valid aggregated requests can still be satisfied.
		dec := p.router.EdgeOnAggregatedData(rec.Tag, d.Content.Meta, pkt.Now)
		deliver = !dec.Denied()
		if dec.Reason != nil {
			reason = dec.Reason
		}
	}
	if !deliver {
		if pkt.Span != nil {
			p.sink.Event(pkt.Span, "edge_drop", core.ReasonLabel(reason), time.Time{})
		}
		p.sink.Drop(DropUndeliverable)
		p.sink.SendData(pkt.Span, rec.InFace, &ndn.Data{Name: d.Name, Tag: rec.Tag, Nack: true, NackReason: reason, Trace: pkt.Trace})
		return
	}
	p.sink.SendData(pkt.Span, rec.InFace, &ndn.Data{Name: d.Name, Content: d.Content, Tag: rec.Tag, Flag: d.Flag, Trace: pkt.Trace})
}

// registration forwards a registration response along the reverse
// path; an edge first learns the fresh tag (Protocol 2 lines 11-12).
func (p *Pipeline) registration(d *ndn.Data, pkt *Packet) {
	if p.edge && d.Registration.Tag != nil {
		p.router.EdgeOnTagResponse(d.Registration.Tag)
	}
	entry, ok := p.pit.Consume(d.Name)
	if !ok {
		p.drop(pkt, DropUnsolicited)
		return
	}
	d.Trace = pkt.Trace
	for _, rec := range entry.Records {
		p.sink.SendData(pkt.Span, rec.InFace, d)
	}
	p.sink.End(pkt.Span, "registration", "")
}

func labelOr(reason error, ok string) string {
	if reason == nil {
		return ok
	}
	return core.ReasonLabel(reason)
}

func hitOrMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// formatFlag renders an F value for trace annotations.
func FormatFlag(flag float64) string {
	return "F=" + strconv.FormatFloat(flag, 'g', -1, 64)
}
