package main

import (
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		}
	}
}

// TestSmoke runs every workload on a shortened script with all of its
// output checks, and requires the end-to-end metric set of BENCHMARK.json
// on each. The two workloads run the same script, so their value
// digests must agree (each already equals the in-process replay).
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	cfg := runConfig{seed: 7, seconds: 0, short: true}
	digests := map[string]string{}
	for name, wl := range workloadTable() {
		m, err := wl.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := m.result()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("%s: result %+v", name, res)
		}
		checkMetrics(t, name, res.Metrics, s.EndToEnd)
		digests[name] = m.digest
	}
	if digests["inspect"] == "" || digests["inspect"] != digests["inspect-fleet"] {
		t.Errorf("inspect digest %q, inspect-fleet digest %q", digests["inspect"], digests["inspect-fleet"])
	}
}

// TestTraceSmoke runs one traced run on a shortened inspect script and
// requires every per-layer metric of BENCHMARK.json, with the named
// workload's blocking path adding up to its traced op time.
func TestTraceSmoke(t *testing.T) {
	s := loadSpec(t)
	cfg := runConfig{seed: 7, short: true, spanDir: t.TempDir()}
	rep, err := traceFor("inspect")(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.result()
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	checkMetrics(t, "trace", res.Metrics, s.PerLayer)
	path, ok := rep.info["inspect"].(map[string]any)
	if !ok {
		t.Fatalf("no blocking-path check in %v", rep.info)
	}
	if e := path["self_sum_error_us"].(float64); e > 1e-6 || e < -1e-6 {
		t.Errorf("self times miss the traced op time by %g us", e)
	}
}
