package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"flattree/internal/experiments"
)

// smallPlan shrinks every workload to a few seconds of work.
var smallPlan = plan{pathsKMin: 8, pathsKMax: 10, allToAllKMax: 6, serveKMax: 6, units: 6}

func runSmall(t *testing.T, workload string, seed uint64, trace bool) result {
	t.Helper()
	r := &run{
		workload: workload, seed: seed, seconds: 1, trace: trace, plan: smallPlan,
		dir: filepath.Join(t.TempDir(), "run"),
	}
	if workload == "alltoall" {
		r.plan.units = 1
	}
	res, err := execute(r, workloads[workload])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%s: checks failed: %v", workload, r.problems)
	}
	return res
}

// TestCountersRepeat pins the deterministic work counters: two traced runs
// of one seed report them identically, and the replay reproduces the
// bytes the public entry points printed.
func TestCountersRepeat(t *testing.T) {
	for _, w := range []string{"paths", "alltoall", "serve-mixed"} {
		t.Run(w, func(t *testing.T) {
			a, b := runSmall(t, w, 7, true), runSmall(t, w, 7, true)
			for _, name := range deterministicCounters {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if m := a.Metrics["trace.match_frac"].Value; m != 1 {
				t.Errorf("trace.match_frac = %v, want 1", m)
			}
		})
	}
}

// TestUntracedMetrics checks that an untraced run prints every end-to-end
// metric, each nonzero.
func TestUntracedMetrics(t *testing.T) {
	for _, w := range []string{"paths", "serve-mixed"} {
		res := runSmall(t, w, 3, false)
		for _, m := range endToEndMetrics {
			if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
				t.Errorf("%s: %s = %+v", w, m.name, v)
			}
		}
	}
}

// TestChecksRejectWrongOutput feeds the output checks a wrong value each.
func TestChecksRejectWrongOutput(t *testing.T) {
	paths := cellOp{
		experiments.Config{KMin: 4, KMax: 4, KStep: 2},
		experiments.CellSpec{Experiment: "fig5", Column: "fat-tree"},
	}
	good := fmt.Sprintf("%.3f", fatTreeAPL(4, false))
	if good != "5.467" {
		t.Fatalf("fat-tree(4) closed form = %s, want 5.467", good)
	}
	tab := &experiments.Table{Header: []string{"k", "fat-tree"}, Rows: [][]string{{"4", good}}}
	if p := checkPathsCell(paths, tab); p != "" {
		t.Fatalf("correct cell rejected: %s", p)
	}
	tab.Rows[0][1] = "5.468"
	if checkPathsCell(paths, tab) == "" {
		t.Error("wrong fat-tree path length accepted")
	}

	fig8 := cellOp{experiments.Config{KMin: 4, KMax: 4, KStep: 2}, experiments.CellSpec{Experiment: "fig8"}}
	lam := &experiments.Table{Header: []string{"k", "a", "b"}, Rows: [][]string{{"4", "0.0400", "0.0410"}}}
	if p := checkLambdaTable(fig8, lam); p != "" {
		t.Fatalf("correct table rejected: %s", p)
	}
	for _, bad := range []string{"0.0400~", "0.0000", "x"} {
		lam.Rows[0][2] = bad
		if checkLambdaTable(fig8, lam) == "" {
			t.Errorf("λ cell %q accepted", bad)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metric lists in
// step with what the command runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not run by the command", w.Name)
		}
	}
	same := func(what string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command prints %d", what, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)", what, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}
