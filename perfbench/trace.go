package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/tactic-icn/tactic/internal/obs"
)

// traceStages are the span stages the traced table breaks each hop into.
var traceStages = []string{"decode", "bf_lookup", "parked", "verify", "pit_cs", "encode_send"}

// traceRoles are the node roles along the request path, client side first.
var traceRoles = []string{"edge", "core", "producer"}

// hopTime is one role's share of the traced round trip, per fetch.
type hopTime struct {
	selfUs float64
	stages map[string]float64
}

// decomposition splits the traced clients' round trip into the time
// spent inside each node's spans and the rest. A node's self time is
// the summed duration of its spans for the fetch (Interest and Data
// direction, retransmissions included); unaccounted is everything else:
// sockets, syscalls, queueing between spans and the client itself.
type decomposition struct {
	traces        int
	rttUs         float64
	hops          map[string]*hopTime
	unaccountedUs float64
	// bfHit and bfLookups count the edge's Bloom-filter verdicts on the
	// traced Interests.
	bfHit, bfLookups int
}

// decompose joins the client's root spans that started at or after
// from (the timed window, not the warm-up) with the node spans that
// share their trace ID. Rings that wrapped lost their oldest spans, so
// only traces that started after every ring's oldest retained span are
// used.
func decompose(from time.Time, client *obs.Recorder, nodes []*obs.Recorder) decomposition {
	dec := decomposition{hops: make(map[string]*hopTime)}
	for _, r := range traceRoles {
		dec.hops[r] = &hopTime{stages: make(map[string]float64)}
	}
	cutoff := from.UnixNano()
	byTrace := make(map[string][]*obs.SpanRecord)
	for _, rec := range nodes {
		spans := rec.Snapshot()
		if rec.Total() > uint64(rec.Cap()) && len(spans) > 0 {
			oldest := spans[0].StartNano
			for _, s := range spans {
				oldest = min(oldest, s.StartNano)
			}
			cutoff = max(cutoff, oldest)
		}
		for _, s := range spans {
			if s.Trace != "" {
				byTrace[s.Trace] = append(byTrace[s.Trace], s)
			}
		}
	}
	var rtt float64
	self := make(map[string]float64)
	stage := make(map[string]float64)
	for _, root := range client.Snapshot() {
		if root.Kind != "fetch" || root.StartNano < cutoff {
			continue
		}
		spans := byTrace[root.Trace]
		if len(spans) == 0 {
			continue
		}
		dec.traces++
		rtt += float64(root.DurMicro)
		for _, s := range spans {
			self[s.Role] += float64(s.DurMicro)
			for _, ev := range s.Events {
				stage[s.Role+"/"+ev.Stage] += float64(ev.DurMicros)
				if s.Role == "edge" && s.Kind == "interest" && ev.Stage == "bf_lookup" {
					dec.bfLookups++
					if ev.Detail == "hit" {
						dec.bfHit++
					}
				}
			}
		}
	}
	if dec.traces == 0 {
		return dec
	}
	per := float64(dec.traces)
	dec.rttUs = rtt / per
	dec.unaccountedUs = dec.rttUs
	for _, r := range traceRoles {
		h := dec.hops[r]
		h.selfUs = self[r] / per
		dec.unaccountedUs -= h.selfUs
		for _, st := range traceStages {
			h.stages[st] = stage[r+"/"+st] / per
		}
	}
	return dec
}

// print renders the per-hop table; the self times plus the unaccounted
// residual add up to the traced round trip.
func (d decomposition) print(w io.Writer) {
	fmt.Fprintf(w, "traced run: %d fetches traced end to end; mean µs per fetch\n", d.traces)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "hop\tself\t%s\t\n", strings.Join(traceStages, "\t"))
	sum := 0.0
	for _, r := range traceRoles {
		h := d.hops[r]
		sum += h.selfUs
		fmt.Fprintf(tw, "%s\t%.2f", r, h.selfUs)
		for _, st := range traceStages {
			fmt.Fprintf(tw, "\t%.2f", h.stages[st])
		}
		fmt.Fprintln(tw, "\t")
	}
	fmt.Fprintf(tw, "unaccounted\t%.2f\t\n", d.unaccountedUs)
	tw.Flush()
	fmt.Fprintf(w, "self %.2f + unaccounted %.2f = %.2f µs = traced client round trip %.2f µs\n",
		sum, d.unaccountedUs, sum+d.unaccountedUs, d.rttUs)
}

// familySum sums every series of one metric family in a registry
// snapshot whose rendered labels contain all of the given label pairs.
func familySum(snap map[string]float64, family string, labels ...string) float64 {
	total := 0.0
	for k, v := range snap {
		rest, ok := strings.CutPrefix(k, family)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			match = match && strings.Contains(rest, l)
		}
		if match {
			total += v
		}
	}
	return total
}

// histMeanUs returns the mean, in µs, of the observations a histogram
// family (filtered by labels) gained between two snapshots.
func histMeanUs(before, after map[string]float64, family string, labels ...string) float64 {
	sum := familySum(after, family+"_sum", labels...) - familySum(before, family+"_sum", labels...)
	n := familySum(after, family+"_count", labels...) - familySum(before, family+"_count", labels...)
	return ratio(sum, n) * 1e6
}

// delta is after minus before for one family summed over the given
// registries' snapshots.
func delta(before, after []map[string]float64, family string, labels ...string) float64 {
	d := 0.0
	for i := range after {
		d += familySum(after[i], family, labels...) - familySum(before[i], family, labels...)
	}
	return d
}

// layerValues derives the per-layer counters of one untraced window.
func layerValues(res *windowResult, v map[string]float64) {
	b, a := res.before, res.after
	ok := float64(res.load.ok)
	attempted := float64(res.load.ok + res.load.failed)
	fwdB := []map[string]float64{b.edgeReg, b.coreReg}
	fwdA := []map[string]float64{a.edgeReg, a.coreReg}

	v["fetch_fail_ratio"] = ratio(float64(res.load.failed), attempted)

	v["transport.frames_per_fetch"] = ratio(delta(fwdB, fwdA, "tactic_face_frames_total"), ok)
	v["transport.bytes_per_fetch"] = ratio(delta(fwdB, fwdA, "tactic_face_bytes_total"), ok)
	v["transport.fragments_per_fetch"] = ratio(delta(fwdB, fwdA, "tactic_udp_fragments_total"), ok)
	v["transport.reassembly_evictions"] = delta(fwdB, fwdA, "tactic_udp_reassembly_evictions_total")
	v["transport.errors"] = delta(fwdB, fwdA, "tactic_face_errors_total") + float64(a.client.Conn.Errors-b.client.Conn.Errors)

	for node, snaps := range map[string][2]map[string]float64{"edge": {b.edgeReg, a.edgeReg}, "core": {b.coreReg, a.coreReg}} {
		v["ndn.decode_us."+node] = histMeanUs(snaps[0], snaps[1], "tactic_stage_seconds", `stage="decode"`)
		v["ndn.encode_send_us."+node] = histMeanUs(snaps[0], snaps[1], "tactic_stage_seconds", `stage="encode_send"`)
		v["ndn.pit_cs_us."+node] = histMeanUs(snaps[0], snaps[1], "tactic_stage_seconds", `stage="pit_cs"`)
	}
	v["ndn.cs_hit_ratio.edge"] = ratio(float64(a.edge.CSHits-b.edge.CSHits), attempted)
	v["ndn.cs_hit_ratio.core"] = ratio(float64(a.core.CSHits-b.core.CSHits), float64(a.core.Interests-b.core.Interests))
	v["ndn.pit_expired"] = delta(fwdB, fwdA, "tactic_pit_expired_total")

	v["enforce.bf_lookup_us.edge"] = histMeanUs(b.edgeReg, a.edgeReg, "tactic_stage_seconds", `stage="bf_lookup"`)
	v["enforce.verify_us.edge"] = histMeanUs(b.edgeReg, a.edgeReg, "tactic_stage_seconds", `stage="verify"`)
	v["enforce.verifications_per_fetch.edge"] = ratio(float64(a.edgeVer-b.edgeVer), ok)
	v["enforce.verifications_per_fetch.core"] = ratio(float64(a.coreVer-b.coreVer), ok)
	v["enforce.verifications_per_fetch.producer"] = ratio(
		familySum(a.prodReg, "tactic_tag_verifications_total")-familySum(b.prodReg, "tactic_tag_verifications_total"), ok)

	v["forwarder.verify_park_us.edge"] = histMeanUs(b.edgeReg, a.edgeReg, "tactic_verify_park_seconds")
	v["forwarder.shed_ratio"] = ratio(float64(a.edge.VerifySheds-b.edge.VerifySheds), float64(a.edge.Interests-b.edge.Interests))
	v["forwarder.producer_served_per_fetch"] = ratio(float64(a.prod.Served-b.prod.Served), ok)
	v["forwarder.client_retransmits"] = float64(a.client.Retransmits - b.client.Retransmits)
	v["forwarder.legit_nacks"] = float64(a.client.FetchNACK - b.client.FetchNACK)
	v["loadgen.lag_p99_us"] = res.lagP99us

	v["runtime.allocs_per_fetch"] = ratio(float64(a.rt.mallocs-b.rt.mallocs), ok)
	v["runtime.alloc_bytes_per_fetch"] = ratio(float64(a.rt.allocBytes-b.rt.allocBytes), ok)
	v["runtime.gc_cpu_fraction"] = ratio(a.rt.gcCPU-b.rt.gcCPU, a.rt.totalCPU-b.rt.totalCPU)
}

// runLiveTraced is a --trace 1 run. It measures an untraced window for
// the layer counters, then boots a second deployment with every node
// tracing at sample 1.0 and every client fetch traced, measures an
// equal window, and decomposes the traced round trip per hop. The two
// windows' fetch_p50_us and fetch_rate give the tracing overhead.
func runLiveTraced(cfg liveConfig, seed int64, window time.Duration, w io.Writer) (*outcome, error) {
	half := window / 2
	m, err := newMaterial(cfg, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o := &outcome{values: map[string]float64{}}

	n, err := boot(cfg, m, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain, err := n.measure(half, seed)
	n.close()
	if err != nil {
		return nil, err
	}
	n.checkWindow(o, plain)
	layerValues(plain, o.values)
	fmt.Fprintf(w, "%s: untraced window: %d fetches in %.2fs (failures: %s)\n",
		cfg.name, plain.load.ok, plain.wall.Seconds(), plain.load.failureSummary())
	if n.attacker != nil {
		n.attacker.describe(w, plain)
	}

	tr := newNodeTracers()
	n, err = boot(cfg, m, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	traced, err := n.measure(half, seed+1)
	n.close()
	if err != nil {
		return nil, err
	}
	n.checkWindow(o, traced)
	dec := decompose(traced.start, tr.client.Recorder(), []*obs.Recorder{tr.edge.Recorder(), tr.core.Recorder(), tr.producer.Recorder()})
	if dec.traces == 0 {
		o.violate("%s: the traced run assembled no end-to-end trace", cfg.name)
	}

	o.attempted = plain.load.ok + plain.load.failed + traced.load.ok + traced.load.failed
	o.failed = plain.load.failed + traced.load.failed
	for _, r := range traceRoles {
		o.values["forwarder.hop_self_us."+r] = dec.hops[r].selfUs
	}
	o.values["forwarder.unaccounted_us"] = dec.unaccountedUs
	o.values["enforce.bf_hit_ratio.edge"] = ratio(float64(dec.bfHit), float64(dec.bfLookups))
	o.values["trace.rtt_us"] = dec.rttUs
	o.values["trace.fetch_p50_us"] = traced.p50us
	o.values["trace.fetch_rate"] = traced.rate

	fmt.Fprintf(w, "%s: traced window: %d fetches in %.2fs (failures: %s)\n",
		cfg.name, traced.load.ok, traced.wall.Seconds(), traced.load.failureSummary())
	dec.print(w)
	fmt.Fprintf(w, "tracing overhead: fetch_p50_us %.1f -> %.1f (%+.1f%%), fetch_rate %.0f -> %.0f (%+.1f%%)\n",
		plain.p50us, traced.p50us, 100*(ratio(traced.p50us, plain.p50us)-1),
		plain.rate, traced.rate, 100*(ratio(traced.rate, plain.rate)-1))
	return o, nil
}
