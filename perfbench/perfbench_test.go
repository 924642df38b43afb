package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/wire"
)

// TestMain makes the test binary a valid shard host: color-part2 spawns
// re-executions of it.
func TestMain(m *testing.M) {
	wire.MaybeShardHost()
	os.Exit(m.Run())
}

// tiny is the workload table at test size; every workload keeps its
// entry point and probe layout.
var tiny = []workload{
	{"color-dist", colorDist, 120, 2},
	{"mis-dist", misDist, 120, 1},
	{"color-part2", colorPart2, 80, 2},
	{"central", central, 400, 1},
}

type spec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []spec) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
		Work     []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Work) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(b.Work), len(workloads))
	}
	for i, w := range b.Work {
		if w.Name != workloads[i].name || tiny[i].name != workloads[i].name || tiny[i].kind != workloads[i].kind {
			t.Fatalf("workload %d: BENCHMARK.json %q, benchmark %q, test table %q", i, w.Name, workloads[i].name, tiny[i].name)
		}
	}
	return b.EndToEnd, b.PerLayer
}

// checkReport fails unless r is correct and prints exactly the declared
// metrics, each with its declared unit.
func checkReport(t *testing.T, r report, want []spec) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("report not correct: attempted %d, failed %d", r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(want))
	}
	for _, s := range want {
		m, ok := r.Metrics[s.Name]
		if !ok {
			t.Errorf("metric %s not printed", s.Name)
		} else if m.Unit != s.Unit {
			t.Errorf("metric %s printed in %q, declared in %q", s.Name, m.Unit, s.Unit)
		}
	}
}

// TestWorkloadsPrintDeclaredMetrics runs every workload at tiny size,
// end to end and traced, twice with the same seed: each run must print
// every declared metric with its unit, and the exact counts must repeat.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range tiny {
		t.Run(w.name, func(t *testing.T) {
			var e2e, traced [2]report
			for i := range e2e {
				tl, err := runEndToEnd(w, 7, 0)
				if err != nil {
					t.Fatal(err)
				}
				e2e[i] = tl.report()
				checkReport(t, e2e[i], endToEnd)
				if tl, err = runLayers(w, tiny, 7); err != nil {
					t.Fatal(err)
				}
				traced[i] = tl.report()
				checkReport(t, traced[i], perLayer)
			}
			if a, b := e2e[0].Metrics["approx_ratio"].Value, e2e[1].Metrics["approx_ratio"].Value; a != b {
				t.Errorf("approx_ratio: %v then %v", a, b)
			}
			for _, name := range []string{"rounds", "dist.flood_volume", "dist.knowledge_records", "core.correction.messages",
				"dist.flood_rounds", "core.correction.rounds", "core.prune.iterations", "core.decide.centers", "peel.layers"} {
				if a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value; a != b || a == 0 {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}
		})
	}
}

// TestUsageErrors checks that bad arguments exit non-zero.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "central", "--trace", "2"},
		{"--workload", "central", "--seconds", "-1"},
		{"--bogus"},
	} {
		if code := run(args); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
	}
}
