// Package bench implements the experiment harness behind cmd/bench: one
// runner per table/figure of the paper's evaluation section (§6), plus the
// ablation studies DESIGN.md calls out. Each runner returns a formatted
// text report; cmd/bench selects runners by name and prints them, and
// EXPERIMENTS.md archives their output next to the paper's numbers.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// JSONPath, when non-empty (cmd/bench -json), receives the machine-readable
// result of each selected experiment that has one (scaleout-elastic,
// ingress, obs, anomaly and failover). CI checks them in as BENCH_*.json.
var JSONPath string

// writeJSONArtifact writes rep as indented JSON to JSONPath, when set, and
// notes the path at the end of the report in b.
func writeJSONArtifact(b *strings.Builder, rep any) error {
	if JSONPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(JSONPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(b, "\n[json artifact written to %s]\n", JSONPath)
	return nil
}

// Experiment is one reproducible experiment.
type Experiment struct {
	// Name is the selector used by `cmd/bench -run`.
	Name string
	// Title describes what the experiment reproduces.
	Title string
	// Run executes the experiment. quick selects a reduced parameter
	// set for smoke runs.
	Run func(quick bool) (string, error)
}

// registry holds all experiments, populated by init functions in this
// package.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the experiments sorted by name.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Find returns experiments whose name contains the selector (empty selects
// all).
func Find(selector string) []Experiment {
	if selector == "" || selector == "all" {
		return All()
	}
	var out []Experiment
	for _, e := range All() {
		if strings.Contains(e.Name, selector) {
			out = append(out, e)
		}
	}
	return out
}

// header renders a section banner for an experiment report.
func header(title string) string {
	line := strings.Repeat("=", len(title))
	return fmt.Sprintf("%s\n%s\n", title, line)
}
