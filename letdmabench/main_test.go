package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"letdma/internal/letopt"
	"letdma/internal/milp"
)

// tinyConfig shrinks a workload to a few ops for the self-tests.
func tinyConfig(t *testing.T, workload string) config {
	cfg := defaultConfig(workload, 3, 0)
	cfg.setupReps, cfg.setupSpan = 1, 0
	cfg.cells = []string{"lite.none"}
	cfg.ops = 40
	cfg.batchJobs = 2
	cfg.workDir = t.TempDir()
	if workload == "service-mix" {
		cfg.ops = 30
		cfg.rejectEvery = 10
	}
	return cfg
}

// benchmarkSpec is the part of BENCHMARK.json the self-tests check
// against.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestProvedRequiresNoEarlyStop(t *testing.T) {
	for _, tc := range []struct {
		status milp.Status
		stop   milp.StopCause
		want   bool
	}{
		{milp.StatusOptimal, milp.StopNone, true},
		{milp.StatusOptimal, milp.StopNumerical, false},
		{milp.StatusOptimal, milp.StopGap, false},
		{milp.StatusFeasible, milp.StopLimit, false},
		{milp.StatusInfeasible, milp.StopNone, false},
	} {
		if got := proved(&letopt.Result{Status: tc.status, StopCause: tc.stop}); got != tc.want {
			t.Errorf("proved(%s, %s) = %t, want %t", tc.status, tc.stop, got, tc.want)
		}
	}
}

// TestProofAccountingFullWatersNoObj runs the full-WATERS NO-OBJ cell,
// which has ended "optimal" after a numerical stop, and checks that a
// result of that kind is counted unproven and charged the budget.
func TestProofAccountingFullWatersNoObj(t *testing.T) {
	if testing.Short() {
		t.Skip("solves full WATERS")
	}
	cfg := tinyConfig(t, "table1-milp")
	cfg.cells = []string{"waters.none"}
	c := newCounters()
	o, err := runTable1(cfg, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("waters.none: %s", o.cells["waters.none"])
	agg := c.milp["waters.none"]
	if agg == nil || agg.solves != 1 {
		t.Fatalf("cell recorded %v MILP results, want 1", agg)
	}
	proof, _ := o.lookup("proof_s.waters.none")
	share, _ := o.lookup("proved_share")
	if strings.Contains(o.cells["waters.none"], "status=optimal stop=none") {
		if share.value != 1 || agg.optimalUnproven != 0 || proof.value >= cfg.budget.Seconds() {
			t.Errorf("proved cell: proved_share=%g optimal_unproven=%d proof_s=%g", share.value, agg.optimalUnproven, proof.value)
		}
		return
	}
	if share.value != 0 {
		t.Errorf("unproven cell counted in proved_share=%g", share.value)
	}
	if proof.value < cfg.budget.Seconds() {
		t.Errorf("unproven cell charged %gs, less than the %v budget", proof.value, cfg.budget)
	}
	if strings.Contains(o.cells["waters.none"], "status=optimal") && agg.optimalUnproven != 1 {
		t.Errorf("%s not counted in milp.optimal_unproven", o.cells["waters.none"])
	}
}

// TestTracedMatchesUntraced checks that the traced path, which calls each
// layer itself, reproduces experiments.SolveFull's deterministic outputs,
// and that a traced service run sees the same interactive outcomes.
func TestTracedMatchesUntraced(t *testing.T) {
	cfg := tinyConfig(t, "table1-milp")
	plain, err := runTable1(cfg, nil, newCounters())
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTable1(cfg, newTracer(), newCounters())
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cfg.cells {
		if plain.cells[cell] == "" || plain.cells[cell] != traced.cells[cell] {
			t.Errorf("%s: untraced %q, traced %q", cell, plain.cells[cell], traced.cells[cell])
		}
	}

	cfg = tinyConfig(t, "service-mix")
	cfg.rejectEvery = 0
	plain, err = runService(cfg, nil, newCounters())
	if err != nil {
		t.Fatal(err)
	}
	traced, err = runService(cfg, newTracer(), newCounters())
	if err != nil {
		t.Fatal(err)
	}
	if plain.counts["hit"] == 0 || plain.counts["done"] == 0 || !equalCounts(plain.counts, traced.counts) {
		t.Errorf("interactive outcomes: untraced %v, traced %v", plain.counts, traced.counts)
	}
	if plain.failed+traced.failed > 0 {
		t.Errorf("service failures: %v %v", plain.failures, traced.failures)
	}
}

func equalCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// printedMetrics runs execute and parses its report into metric name ->
// unit, and the final JSON line.
func printedMetrics(t *testing.T, cfg config) (map[string]string, result) {
	t.Helper()
	var buf bytes.Buffer
	res, err := execute(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	units := map[string]string{}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) == 6 && (f[0] == "metric" || f[0] == "layer") && f[2] == "=" {
			units[f[1]] = f[4]
		}
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok || len(last) != 4 {
			t.Fatalf("last line keys %v, want correct, attempted, failed, metrics", last)
		}
	}
	var out result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	return units, out
}

// namedMetrics are the per-workload end-to-end metrics the reports print.
var namedMetrics = []string{
	"setup_s",
	"proof_s.lite.none", "proof_s.lite.dmat", "proof_s.lite.del",
	"proof_s.waters.none", "proof_s.waters.dmat", "proof_s.waters.del",
	"proved_share", "fail_share",
	"job_s.p50", "job_s.p99", "milp_job_s.p50", "jobs_per_s",
}

// TestEveryMetricPrinted runs each workload traced on a tiny
// configuration and checks the printed report and the JSON line against
// BENCHMARK.json. The service run sends single-core systems the daemon
// must reject; they must be counted as failures.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	seen := map[string]string{}
	for _, name := range []string{"table1-milp", "service-mix"} {
		cfg := tinyConfig(t, name)
		if name == "table1-milp" {
			cfg.cells = cells
			cfg.budget = 2 * time.Second
			if testing.Short() {
				cfg.cells = []string{"lite.none"}
			}
		}
		cfg.trace = true
		units, res := printedMetrics(t, cfg)
		for name, unit := range units {
			seen[name] = unit
		}
		for _, m := range spec.EndToEnd {
			if units[m.Name] != m.Unit {
				t.Errorf("%s: end-to-end %s printed with unit %q, want %q", name, m.Name, units[m.Name], m.Unit)
			}
		}
		for _, m := range spec.PerLayer {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s reported as %+v, want unit %q", name, m.Name, got, m.Unit)
			}
		}
		if len(res.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s: traced run reports %d metrics, BENCHMARK.json lists %d", name, len(res.Metrics), len(spec.PerLayer))
		}
		if name == "service-mix" {
			if res.Failed < 3 || res.Correct {
				t.Errorf("service-mix: rejected specs not counted: failed=%d correct=%t", res.Failed, res.Correct)
			}
		} else if !res.Correct {
			t.Errorf("%s: failed=%d", name, res.Failed)
		}
	}
	for _, name := range namedMetrics {
		if testing.Short() && strings.HasPrefix(name, "proof_s.") && name != "proof_s.lite.none" {
			continue
		}
		if seen[name] == "" {
			t.Errorf("metric %s never printed with a unit", name)
		}
	}
}

func TestUntracedReportsEndToEndOnly(t *testing.T) {
	spec := loadSpec(t)
	cfg := tinyConfig(t, "service-mix")
	cfg.rejectEvery = 0
	_, res := printedMetrics(t, cfg)
	if len(res.Metrics) != len(spec.EndToEnd) {
		t.Errorf("untraced run reports %d metrics, want %d", len(res.Metrics), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("end-to-end %s = %+v", m.Name, got)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample is not 0")
	}
}
