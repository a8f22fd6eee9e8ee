package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the benchmark prints in step: the same names, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range append(file.EndToEnd, file.PerLayer...) {
		listed[m.Name] = true
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("BENCHMARK.json lists %s in %q; the benchmark reports it in %q", m.Name, m.Unit, u)
		}
	}
	for name := range units {
		if !listed[name] {
			t.Errorf("the benchmark reports %s, which BENCHMARK.json does not list", name)
		}
	}
}
