package main

// Self-test of the benchmark at tiny sizes:
//
//	cd perfbench && go test ./...
//
// It proves that every metric BENCHMARK.json names is emitted with its
// unit, that the output checks are not vacuous (a corrupted reference
// digest shows up as failed operations), and that input generation is
// a pure function of the seed.

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
)

type printed struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runTiny(t *testing.T, workload string, trace, corrupt bool) printed {
	t.Helper()
	cfg := config{seed: 7, measure: 200 * time.Millisecond, trace: trace, dir: t.TempDir(), corrupt: corrupt}
	res, err := workloads[workload](cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var buf bytes.Buffer
	if err := res.print(&buf, trace); err != nil {
		t.Fatalf("%s: print: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if p.Failed != 0 && !corrupt {
		t.Logf("%s report:\n%s", workload, buf.String())
	}
	return p
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: catalog has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: catalog %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			p := runTiny(t, name, trace, false)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, p.Correct, p.Attempted, p.Failed)
			}
			if len(p.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(p.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := p.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

func TestCorruptReferenceIsCaught(t *testing.T) {
	for name := range workloads {
		p := runTiny(t, name, true, true)
		if p.Correct || p.Failed == 0 || p.Metrics["error_rate"].Value <= 0 {
			t.Errorf("%s: corrupted reference not caught: correct=%v failed=%d error_rate=%v",
				name, p.Correct, p.Failed, p.Metrics["error_rate"].Value)
		}
	}
}

func TestGenerationIsPureFunctionOfSeed(t *testing.T) {
	digests := map[string]func(seed int64) any{
		"coexpr": func(seed int64) any { return matrixDigest(genCoexpr(seed, coexprTiny)) },
		"spill":  func(seed int64) any { return repro.Fingerprint(genSpill(seed, spillTiny)) },
		"cliqued": func(seed int64) any {
			in, err := genCliqued(seed, cliquedTiny)
			if err != nil {
				t.Fatal(err)
			}
			return in.inputDigest()
		},
	}
	for name, digest := range digests {
		a, b, other := digest(11), digest(11), digest(12)
		if a != b {
			t.Errorf("%s: seed 11 generated different inputs: %v, %v", name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 11 and 12 generated the same inputs", name)
		}
	}
}
