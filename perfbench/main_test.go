package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the harness must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type runLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

// smoke runs one workload at smoke sizes and parses its JSON line.
func smoke(t *testing.T, workload string, trace, corrupt bool) runLine {
	t.Helper()
	c := &config{workload: workload, seed: 7, seconds: 1, trace: trace, smoke: true, corrupt: corrupt, work: t.TempDir()}
	r := newResult()
	if err := workloads[workload](c, r); err != nil {
		r.op(err)
	}
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	line, _ := report(c, r)
	var out runLine
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("%s: bad JSON line %q: %v", workload, line, err)
	}
	return out
}

// TestSmoke checks that every workload of BENCHMARK.json emits exactly
// its named metrics with their units, with every check passing, in both
// the untraced and the traced mode.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(endToEnd) != len(spec.EndToEnd) || len(perLayer) != len(spec.PerLayer) {
		t.Fatalf("harness lists %d/%d metrics, BENCHMARK.json %d/%d",
			len(endToEnd), len(perLayer), len(spec.EndToEnd), len(spec.PerLayer))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			out := smoke(t, w.Name, trace, false)
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s in %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestCorruptAnswerFails alters one answer inside the benchmark before
// its check and expects the run to count a failed operation and fail.
func TestCorruptAnswerFails(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		out := smoke(t, w.Name, false, true)
		if out.Correct || out.Failed == 0 {
			t.Errorf("%s: corrupted answer not caught: correct=%v failed=%d", w.Name, out.Correct, out.Failed)
		}
	}
}
