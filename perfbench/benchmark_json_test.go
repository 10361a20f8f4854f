package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesOutput holds BENCHMARK.json and the metric
// sets the runs print to each other, names, order and units alike.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	check := func(kind string, got []entry, want []string, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the runs print %d", kind, len(got), len(want))
			return
		}
		for i, e := range got {
			if e.Name != want[i] || e.Unit != units[want[i]] {
				t.Errorf("%s[%d] = %s (%s), runs print %s (%s)", kind, i, e.Name, e.Unit, want[i], units[want[i]])
			}
			if (e.Bound != nil) != bounded || (bounded && (*e.Bound <= 0 || *e.Bound > 0.25)) {
				t.Errorf("%s: %s has a bad bound", kind, e.Name)
			}
			if e.Better != "higher" && e.Better != "lower" {
				t.Errorf("%s: %s has better=%q", kind, e.Name, e.Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, gated, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
