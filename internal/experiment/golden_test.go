package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/metrics"
)

// goldenFile holds the committed fingerprints of goldenRuns. A change
// that alters simulation behaviour on purpose updates it (the failure
// message prints the new fingerprint) and says so; any other change must
// leave every run event-for-event identical.
const goldenFile = "testdata/golden_runs.json"

// runFingerprint is what a run must reproduce exactly.
type runFingerprint struct {
	Events           uint64
	ClientDelivery   metrics.Delivery
	AttackerDelivery metrics.Delivery
	ClientLatencyNs  int64
	Drops            map[string]uint64
	EdgeOps          metrics.RouterOps
	CoreOps          metrics.RouterOps
}

func fingerprint(r *Result) runFingerprint {
	return runFingerprint{
		Events:           r.Events,
		ClientDelivery:   r.ClientDelivery,
		AttackerDelivery: r.AttackerDelivery,
		ClientLatencyNs:  int64(r.ClientLatency.Mean()),
		Drops:            r.Drops,
		EdgeOps:          r.EdgeOps,
		CoreOps:          r.CoreOps,
	}
}

// goldenRuns are the pinned scenarios: the small integration topology
// and a paper-fidelity Topology 2 run (the benchmark's sim workload).
func goldenRuns() map[string]Scenario {
	return map[string]Scenario{
		"small-seed7": smallScenario(7),
		"topo2-seed1-5s": {
			Name:          "golden-topo2",
			PaperTopology: 2,
			Seed:          1,
			Duration:      5 * time.Second,
			PaperFidelity: true,
		},
	}
}

// TestGoldenRuns pins the exact outcome of fixed-seed runs, so a change
// to the event queue, the packet path or any RNG draw order that alters
// the (time, sequence) order of events fails here even though it would
// still repeat itself run to run.
func TestGoldenRuns(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]runFingerprint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	runs := goldenRuns()
	if len(want) != len(runs) {
		t.Errorf("%s holds %d fingerprints, want %d", goldenFile, len(want), len(runs))
	}
	for name, sc := range runs {
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := fingerprint(res)
		// Round-trip through JSON so nil and empty slices compare equal.
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var norm runFingerprint
		if err := json.Unmarshal(enc, &norm); err != nil {
			t.Fatal(err)
		}
		if w, ok := want[name]; !ok || !reflect.DeepEqual(norm, w) {
			t.Errorf("%s diverged from %s; got:\n%q: %s", name, goldenFile, name, enc)
		}
	}
}
