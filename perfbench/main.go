// Command perfbench is the repository benchmark. It runs one named
// workload against the TACTIC stack, checks every output it receives,
// and ends its standard output with one JSON line:
//
//	perfbench --workload edge_hit --seed 1 --seconds 10 --trace 0
//
// The live workloads (edge_hit, upstream_udp, verify_flood) boot a
// producer, a core and an edge forwarder in this process over
// 127.0.0.1 sockets and drive them with closed-loop clients; sim_topo2
// runs the discrete-event simulator on the paper's Topology 2. With
// --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, and a traced run's per-hop table is
// printed before it. README.md defines every metric and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a --trace 0 run reports, in print order.
var endToEnd = []metricDef{
	{"fetch_rate", "fetches/s"},
	{"fetch_p50_us", "us"},
	{"fetch_p99_us", "us"},
	{"cpu_us_per_fetch", "us"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics a --trace 1 run reports, in print order. A
// metric that does not apply to a workload (the sim counters on a live
// workload, the live counters on sim_topo2) reads 0.
var perLayer = []metricDef{
	{"fetch_fail_ratio", "ratio"},
	{"sim.rate_x", "sim-s/wall-s"},
	{"transport.frames_per_fetch", "count"},
	{"transport.bytes_per_fetch", "B"},
	{"transport.fragments_per_fetch", "count"},
	{"transport.reassembly_evictions", "count"},
	{"transport.errors", "count"},
	{"ndn.decode_us.edge", "us"},
	{"ndn.decode_us.core", "us"},
	{"ndn.encode_send_us.edge", "us"},
	{"ndn.encode_send_us.core", "us"},
	{"ndn.pit_cs_us.edge", "us"},
	{"ndn.pit_cs_us.core", "us"},
	{"ndn.cs_hit_ratio.edge", "ratio"},
	{"ndn.cs_hit_ratio.core", "ratio"},
	{"ndn.pit_expired", "count"},
	{"enforce.bf_lookup_us.edge", "us"},
	{"enforce.bf_hit_ratio.edge", "ratio"},
	{"enforce.verifications_per_fetch.edge", "count"},
	{"enforce.verifications_per_fetch.core", "count"},
	{"enforce.verifications_per_fetch.producer", "count"},
	{"enforce.verify_us.edge", "us"},
	{"forwarder.verify_park_us.edge", "us"},
	{"forwarder.shed_ratio", "ratio"},
	{"forwarder.hop_self_us.edge", "us"},
	{"forwarder.hop_self_us.core", "us"},
	{"forwarder.hop_self_us.producer", "us"},
	{"forwarder.unaccounted_us", "us"},
	{"forwarder.producer_served_per_fetch", "count"},
	{"forwarder.client_retransmits", "count"},
	{"forwarder.legit_nacks", "count"},
	{"loadgen.lag_p99_us", "us"},
	{"runtime.allocs_per_fetch", "count"},
	{"runtime.alloc_bytes_per_fetch", "B"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.allocs_per_event", "count"},
	{"sim.build_s", "s"},
	{"trace.rtt_us", "us"},
	{"trace.fetch_p50_us", "us"},
	{"trace.fetch_rate", "fetches/s"},
}

// outcome is what a workload run hands back: operation counts, the
// correctness gates it failed, and its metric values by name.
type outcome struct {
	attempted, failed int64
	violations        []string
	values            map[string]float64
}

// violate records a failed correctness gate.
func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadNames lists the workloads in README order.
var workloadNames = []string{"edge_hit", "upstream_udp", "verify_flood", "sim_topo2"}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, "|"))
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from untraced and traced runs")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == o.workload
	}
	if !known {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	o.trace = *traceFlag == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	host, err := json.Marshal(map[string]any{
		"host": hostFingerprint(), "workload": opts.workload,
		"seed": opts.seed, "seconds": opts.seconds, "trace": opts.trace,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", host)

	out, err := runWorkload(opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := buildReport(out, opts.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printMetrics(stdout, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		for _, v := range out.violations {
			fmt.Fprintln(stderr, "perfbench: correctness gate failed:", v)
		}
		return 1
	}
	return 0
}

// runWorkload dispatches one workload run.
func runWorkload(opts options, w io.Writer) (*outcome, error) {
	window := time.Duration(opts.seconds) * time.Second
	if opts.workload == "sim_topo2" {
		return runSim(defaultSimConfig(), opts.seed, window, w)
	}
	cfg, err := liveWorkload(opts.workload)
	if err != nil {
		return nil, err
	}
	if opts.trace {
		return runLiveTraced(cfg, opts.seed, window, w)
	}
	return runLive(cfg, opts.seed, window, w)
}

// buildReport selects the metric set the run reports. Every listed
// metric is present; a value the workload did not produce reads 0.
func buildReport(out *outcome, trace bool) (report, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	rep := report{
		Correct:   len(out.violations) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	known := make(map[string]bool)
	for _, d := range endToEnd {
		known[d.name] = true
	}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for name := range out.values {
		if !known[name] {
			return rep, fmt.Errorf("workload produced undeclared metric %q", name)
		}
	}
	for _, d := range defs {
		v := out.values[d.name]
		if v != v || v > 1e300 || v < -1e300 {
			return rep, fmt.Errorf("metric %s is not a finite number (%v)", d.name, v)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if rep.Attempted < 1 {
		return rep, errors.New("the run attempted no operations")
	}
	return rep, nil
}

// printMetrics prints one "name value unit" line per metric.
func printMetrics(w io.Writer, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-42s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// hostFingerprint identifies the machine a result was measured on, so
// results are only compared between runs on the same host.
func hostFingerprint() map[string]any {
	fp := map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"kernel":     "unknown",
	}
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		fp["kernel"] = utsString(u.Sysname[:]) + " " + utsString(u.Release[:])
	}
	return fp
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// utsString converts a NUL-terminated utsname field (int8 or uint8
// depending on the architecture).
func utsString[T int8 | uint8](field []T) string {
	b := make([]byte, 0, len(field))
	for _, c := range field {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}
