package main

import (
	"fmt"
	"io"
	"time"

	"github.com/tactic-icn/tactic/internal/experiment"
	"github.com/tactic-icn/tactic/internal/metrics"
)

// simConfig shapes the sim_topo2 workload: the paper's Table III
// Topology 2 under the TACTIC scheme in paper-fidelity mode.
type simConfig struct {
	topology int
	// duration is the simulated time of one repetition; the run repeats
	// build-and-simulate until the measured wall time reaches the window.
	duration time.Duration
	// slice is the simulated step the run is timed in; slices before
	// skip (the consumers' start jitter) are not timed.
	slice, skip time.Duration
	// clientFloor is the lowest client delivery ratio a run may show;
	// attackerCeiling is the highest delivery ratio per threat. Both
	// apply to the deliveries pooled over the run's repetitions.
	clientFloor     float64
	attackerCeiling map[string]float64
}

func defaultSimConfig() simConfig {
	return simConfig{
		topology: 2,
		duration: 40 * time.Second,
		slice:    100 * time.Millisecond,
		skip:     time.Second,
		// Over 1,071 single-repetition seeds the current code delivers at
		// least 96.7% to clients on Topology 2 (median 99.1%) and blocks
		// every threat but a trickle of low-level requests aggregated
		// behind authorised ones (at most 1.2%;
		// core.Config.EnforceALOnAggregates closes that gap).
		clientFloor: 0.95,
		attackerCeiling: map[string]float64{
			"no-tag": 0, "fake-tag": 0, "expired-tag": 0, "shared-tag": 0, "low-level": 0.02,
		},
	}
}

// clientsReceived sums the chunks delivered to the legitimate clients.
func clientsReceived(d *experiment.Deployment) int64 {
	var n int64
	for _, c := range d.Clients {
		n += int64(c.Stats().Delivery.Received)
	}
	return n
}

// runSim builds and runs the simulation repeatedly, seeding repetition
// r with seed*1000+r, until the simulated runs have taken window of wall
// time. A "fetch" is a chunk delivered to a simulated client, so
// fetch_rate is delivered chunks per wall second and fetch_p50_us /
// fetch_p99_us are quantiles of the wall time per delivered chunk over
// the run's simulated slices. Every repetition must see every threat
// issue requests; the deliveries pooled over the run's repetitions must
// meet the floor and the per-threat ceilings.
func runSim(cfg simConfig, seed int64, window time.Duration, w io.Writer) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	var builds, rates, cpus, rateX, events, eventsPerS, allocsPerEvent, allocsPerFetch, bytesPerFetch, gcFrac []float64
	var sliceCost []float64
	var measured time.Duration
	var client metrics.Delivery
	attackers := make(map[string]metrics.Delivery)
	for rep := int64(0); measured < window; rep++ {
		settle()
		start := time.Now()
		d, err := experiment.Build(experiment.Scenario{
			Name:          "sim_topo2",
			PaperTopology: cfg.topology,
			Seed:          seed*1000 + rep,
			Duration:      cfg.duration,
			PaperFidelity: true,
		})
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		builds = append(builds, time.Since(start).Seconds())
		d.Start()

		rt0, cpu0, wall0 := readRuntime(), processCPU(), time.Now()
		var delivered int64
		for at := cfg.slice; at <= cfg.duration; at += cfg.slice {
			s0 := time.Now()
			d.RunUntil(at)
			dt := time.Since(s0)
			got := clientsReceived(d)
			if at > cfg.skip && got > delivered {
				sliceCost = append(sliceCost, float64(dt)/float64(time.Microsecond)/float64(got-delivered))
			}
			delivered = got
		}
		wall := time.Since(wall0)
		cpu := processCPU() - cpu0
		rt1 := readRuntime()
		measured += wall

		res := d.Collect()
		o.attempted++
		if !checkThreats(res, o) {
			o.failed++
		}
		client.Merge(res.ClientDelivery)
		for kind, rd := range res.AttackerByKind {
			pooled := attackers[kind]
			pooled.Merge(rd)
			attackers[kind] = pooled
		}
		ev := float64(res.Events)
		got := float64(delivered)
		rates = append(rates, got/wall.Seconds())
		cpus = append(cpus, float64(cpu)/float64(time.Microsecond)/got)
		rateX = append(rateX, cfg.duration.Seconds()/wall.Seconds())
		events = append(events, ev)
		eventsPerS = append(eventsPerS, ev/wall.Seconds())
		allocsPerEvent = append(allocsPerEvent, float64(rt1.mallocs-rt0.mallocs)/ev)
		allocsPerFetch = append(allocsPerFetch, float64(rt1.mallocs-rt0.mallocs)/got)
		bytesPerFetch = append(bytesPerFetch, float64(rt1.allocBytes-rt0.allocBytes)/got)
		gcFrac = append(gcFrac, ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
		fmt.Fprintf(w, "sim_topo2 rep %d: seed %d, build %.3fs, %s simulated in %.3fs wall, %d events, client delivery %.4f (%d chunks), attacker delivery %.4f\n",
			rep, seed*1000+rep, builds[len(builds)-1], cfg.duration, wall.Seconds(), res.Events,
			res.ClientDelivery.Ratio(), res.ClientDelivery.Received, res.AttackerDelivery.Ratio())
	}
	checkDelivery(cfg, client, attackers, o)
	v := o.values
	v["fetch_rate"] = median(rates)
	v["fetch_p50_us"] = quantile(sliceCost, 0.50)
	v["fetch_p99_us"] = quantile(sliceCost, 0.99)
	v["cpu_us_per_fetch"] = median(cpus)
	v["peak_rss_mb"] = peakRSSMB()
	v["setup_s"] = median(builds)
	v["sim.rate_x"] = median(rateX)
	v["sim.events"] = median(events)
	v["sim.events_per_s"] = median(eventsPerS)
	v["sim.allocs_per_event"] = median(allocsPerEvent)
	v["sim.build_s"] = median(builds)
	v["runtime.allocs_per_fetch"] = median(allocsPerFetch)
	v["runtime.alloc_bytes_per_fetch"] = median(bytesPerFetch)
	v["runtime.gc_cpu_fraction"] = median(gcFrac)
	fmt.Fprintf(w, "sim_topo2: %d repetitions, %d timed slices; sim_rate_x %.2f sim-s/wall-s\n",
		o.attempted, len(sliceCost), v["sim.rate_x"])
	return o, nil
}

// checkThreats records a repetition in which some threat issued no
// requests, so its ceiling would hold vacuously; it reports whether
// every threat was exercised.
func checkThreats(res *experiment.Result, o *outcome) bool {
	held := true
	for _, kind := range experiment.DefaultAttackerMix() {
		if res.AttackerByKind[kind.String()].Requested == 0 {
			o.violate("sim_topo2 seed %d: threat %s issued no requests", res.Seed, kind)
			held = false
		}
	}
	return held
}

// checkDelivery applies the client-delivery floor and the per-threat
// ceilings to the deliveries pooled over a run's repetitions. Pooling
// keeps one unlucky topology draw (the lowest single-repetition client
// delivery seen is 0.967) from failing a run while a regression that
// lowers delivery across draws still fails it.
func checkDelivery(cfg simConfig, client metrics.Delivery, attackers map[string]metrics.Delivery, o *outcome) {
	if r := client.Ratio(); r < cfg.clientFloor {
		o.violate("sim_topo2: client delivery %.4f (%d/%d) below the floor %.4f",
			r, client.Received, client.Requested, cfg.clientFloor)
	}
	for _, kind := range experiment.DefaultAttackerMix() {
		d := attackers[kind.String()]
		ceiling, ok := cfg.attackerCeiling[kind.String()]
		switch {
		case !ok:
			o.violate("sim_topo2: no ceiling for threat %s", kind)
		case d.Ratio() > ceiling:
			o.violate("sim_topo2: threat %s delivery %.4f above the ceiling %.4f (%d/%d)",
				kind, d.Ratio(), ceiling, d.Received, d.Requested)
		}
	}
}
