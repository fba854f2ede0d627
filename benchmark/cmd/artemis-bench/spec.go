package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json: the workloads a driver gates (the generator
// builds one more, bmp-flood, which only a person runs: see the README),
// and for every metric its unit, direction and — end to end — the share of
// the parent's median by which it may worsen.
type spec struct {
	RunSeconds int        `json:"run_seconds"`
	Workloads  []workload `json:"workloads"`
	EndToEnd   []metric   `json:"end_to_end"`
	PerLayer   []metric   `json:"per_layer"`
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds < 1 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: incomplete", path)
	}
	return &s, nil
}
