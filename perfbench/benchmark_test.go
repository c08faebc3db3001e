package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// BENCHMARK.json declares exactly the workloads and metrics the
// benchmark prints, with the same units.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		Workloads []decl
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	if !slices.Equal(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wls, workloadNames)
	}
	for _, tc := range []struct {
		what     string
		declared []decl
		printed  map[string]metric
	}{
		{"end_to_end", b.EndToEnd, endToEnd(nil)},
		{"per_layer", b.PerLayer, layerMetrics(nil)},
	} {
		seen := map[string]bool{}
		for _, d := range tc.declared {
			m, ok := tc.printed[d.Name]
			switch {
			case !ok:
				t.Errorf("%s declares %s, which is not printed", tc.what, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s %s: declared unit %q, printed %q", tc.what, d.Name, d.Unit, m.Unit)
			}
			seen[d.Name] = true
		}
		for _, name := range sortedKeys(tc.printed) {
			if !seen[name] {
				t.Errorf("%s metric %s is printed but not declared", tc.what, name)
			}
		}
	}
}
