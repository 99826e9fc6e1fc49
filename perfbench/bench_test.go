package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/metrics"
)

// smokeWindow is the timed window of the smoke runs: long enough for
// several sampling bins.
const smokeWindow = 1500 * time.Millisecond

func mustLive(t *testing.T, name string) liveConfig {
	t.Helper()
	cfg, err := liveWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.catalog > 10000 {
		// The smoke pass runs upstream_udp on a smaller catalog that still
		// outgrows the edge's 4,096-chunk store: signing 30,000 chunks
		// three times would dominate the test.
		cfg.catalog = 10000
		cfg.warmFetches = 1000
	}
	return cfg
}

// requireClean checks that a run passed every gate, failed no
// operation, reports the full metric set, and measured the named
// metrics as positive.
func requireClean(t *testing.T, o *outcome, trace bool, positive ...string) {
	t.Helper()
	if len(o.violations) > 0 {
		t.Fatalf("correctness gates failed: %v", o.violations)
	}
	if o.attempted < 1 || o.failed != 0 {
		t.Fatalf("attempted=%d failed=%d", o.attempted, o.failed)
	}
	rep, err := buildReport(o, trace)
	if err != nil {
		t.Fatal(err)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(rep.Metrics) != len(defs) {
		t.Fatalf("report has %d metrics, want %d", len(rep.Metrics), len(defs))
	}
	for _, name := range positive {
		if v := o.values[name]; !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
}

func smokeSimConfig() simConfig {
	cfg := defaultSimConfig()
	cfg.duration = 5 * time.Second
	return cfg
}

func TestSmokeLiveWorkloads(t *testing.T) {
	for _, name := range []string{"edge_hit", "upstream_udp", "verify_flood"} {
		t.Run(name, func(t *testing.T) {
			o, err := runLive(mustLive(t, name), 1, smokeWindow, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			requireClean(t, o, false, "fetch_rate", "fetch_p50_us", "fetch_p99_us", "cpu_us_per_fetch", "peak_rss_mb", "setup_s")
		})
	}
}

func TestSmokeSim(t *testing.T) {
	o, err := runSim(smokeSimConfig(), 1, time.Millisecond, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, o, false, "fetch_rate", "fetch_p50_us", "fetch_p99_us", "cpu_us_per_fetch", "setup_s")
	requireClean(t, o, true, "sim.rate_x", "sim.events", "sim.build_s")
}

// TestTracedRunAddsUp checks the traced breakdown on both a cache-hit
// and an upstream workload: the hop self times plus the unaccounted
// residual equal the traced round trip, and the counters show the path
// each workload is meant to exercise.
func TestTracedRunAddsUp(t *testing.T) {
	for _, name := range []string{"edge_hit", "upstream_udp"} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			o, err := runLiveTraced(mustLive(t, name), 2, 2*smokeWindow, &out)
			if err != nil {
				t.Fatal(err)
			}
			requireClean(t, o, true, "trace.rtt_us", "forwarder.hop_self_us.edge", "transport.frames_per_fetch")
			v := o.values
			sum := v["forwarder.hop_self_us.edge"] + v["forwarder.hop_self_us.core"] + v["forwarder.hop_self_us.producer"] + v["forwarder.unaccounted_us"]
			if d := sum - v["trace.rtt_us"]; d > 1e-6*v["trace.rtt_us"] || d < -1e-6*v["trace.rtt_us"] {
				t.Errorf("self times + unaccounted = %v, traced round trip %v", sum, v["trace.rtt_us"])
			}
			if !strings.Contains(out.String(), "tracing overhead:") {
				t.Errorf("no tracing-overhead line in:\n%s", out.String())
			}
			switch name {
			case "edge_hit":
				if v["ndn.cs_hit_ratio.edge"] < 0.99 || v["forwarder.producer_served_per_fetch"] > 0.01 {
					t.Errorf("edge_hit left the edge: cs_hit_ratio.edge=%v producer_served_per_fetch=%v",
						v["ndn.cs_hit_ratio.edge"], v["forwarder.producer_served_per_fetch"])
				}
			case "upstream_udp":
				if v["transport.fragments_per_fetch"] <= 0 || v["forwarder.producer_served_per_fetch"] < 0.2 {
					t.Errorf("upstream_udp stayed at the edge: fragments_per_fetch=%v producer_served_per_fetch=%v",
						v["transport.fragments_per_fetch"], v["forwarder.producer_served_per_fetch"])
				}
			}
		})
	}
}

func requireViolation(t *testing.T, o *outcome, want string) {
	t.Helper()
	for _, v := range o.violations {
		if strings.Contains(v, want) {
			return
		}
	}
	t.Fatalf("no violation mentioning %q; got %v", want, o.violations)
}

// TestPayloadGateCatchesMismatch corrupts the benchmark's record of the
// most popular chunk; fetching it must fail the run.
func TestPayloadGateCatchesMismatch(t *testing.T) {
	cfg := mustLive(t, "edge_hit")
	m, err := newMaterial(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	n, err := boot(cfg, m, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	bad := *m.want[0]
	bad.Payload = append([]byte(nil), bad.Payload...)
	bad.Payload[0] ^= 0xff
	m.want[0] = &bad
	res, err := n.measure(smokeWindow, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{}
	n.checkWindow(o, res)
	requireViolation(t, o, "differ from the published chunk")
	if res.load.mismatches == 0 || res.load.failed < res.load.mismatches {
		t.Errorf("mismatches=%d failed=%d", res.load.mismatches, res.load.failed)
	}
}

// TestShedGateNeedsAFlood runs verify_flood with an attacker that sends
// nothing: the edge never sheds, so the run must fail.
func TestShedGateNeedsAFlood(t *testing.T) {
	cfg := mustLive(t, "verify_flood")
	cfg.floodRate = 0
	o, err := runLive(cfg, 4, smokeWindow, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	requireViolation(t, o, "never shed")
}

// TestSimFloorGate sets the client-delivery floor above what the
// simulation can deliver; the run must fail.
func TestSimFloorGate(t *testing.T) {
	cfg := smokeSimConfig()
	cfg.clientFloor = 1.01
	o, err := runSim(cfg, 5, time.Millisecond, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	requireViolation(t, o, "below the floor")
}

// TestSimGatesPoolRepetitions checks that the delivery gates judge the
// run's pooled counts: a low repetition beside good ones passes, while
// pooled delivery under the floor or any delivery to a zero-ceiling
// threat fails.
func TestSimGatesPoolRepetitions(t *testing.T) {
	cfg := defaultSimConfig()
	blocked := func() map[string]metrics.Delivery {
		m := make(map[string]metrics.Delivery)
		for kind := range cfg.attackerCeiling {
			m[kind] = metrics.Delivery{Requested: 1000}
		}
		return m
	}
	pool := func(reps ...metrics.Delivery) metrics.Delivery {
		var d metrics.Delivery
		for _, r := range reps {
			d.Merge(r)
		}
		return d
	}
	good, low := metrics.Delivery{Requested: 1000, Received: 990}, metrics.Delivery{Requested: 1000, Received: 900}

	o := &outcome{}
	checkDelivery(cfg, pool(good, low, good), blocked(), o)
	if len(o.violations) > 0 {
		t.Errorf("one low repetition among good ones failed the run: %v", o.violations)
	}

	o = &outcome{}
	checkDelivery(cfg, pool(low, low, good), blocked(), o)
	requireViolation(t, o, "below the floor")

	o = &outcome{}
	leaked := blocked()
	leaked["fake-tag"] = metrics.Delivery{Requested: 1000, Received: 1}
	checkDelivery(cfg, pool(good), leaked, o)
	requireViolation(t, o, "fake-tag delivery")
}

// TestForgedDeliveryIsAHardError checks the attacker's classification:
// content without a NACK counts as a leak, while a NACK (with or without
// the ciphertext) and an Overload shed do not.
func TestForgedDeliveryIsAHardError(t *testing.T) {
	cfg := mustLive(t, "verify_flood")
	m, err := newMaterial(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	n, err := boot(cfg, m, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	res, err := n.measure(smokeWindow, 6)
	if err != nil {
		t.Fatal(err)
	}
	if n.attacker.sheds.Load() == 0 || n.attacker.nacked.Load() == 0 {
		t.Errorf("attacker saw sheds=%d nacks=%d, want both > 0", n.attacker.sheds.Load(), n.attacker.nacked.Load())
	}
	n.attacker.delivered.Add(1)
	o := &outcome{}
	n.checkWindow(o, res)
	requireViolation(t, o, "answered with content")
}

func TestParseFlags(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "edge_hit", "--seconds", "0"},
		{"--workload", "edge_hit", "--trace", "2"},
		{"--workload", "edge_hit", "extra"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	o, err := parseFlags([]string{"--workload", "sim_topo2", "--seed", "7", "--seconds", "3", "--trace", "1"}, io.Discard)
	if err != nil || o.workload != "sim_topo2" || o.seed != 7 || o.seconds != 3 || !o.trace {
		t.Errorf("parseFlags = %+v, %v", o, err)
	}
}

func TestBuildReportRejectsUndeclaredMetric(t *testing.T) {
	if _, err := buildReport(&outcome{attempted: 1, values: map[string]float64{"nope": 1}}, false); err == nil {
		t.Error("undeclared metric accepted")
	}
	if _, err := buildReport(&outcome{values: map[string]float64{}}, false); err == nil {
		t.Error("a run with no attempted operations accepted")
	}
}
