package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsTiny runs every workload's code and oracle path once at
// tiny sizes, untraced and traced, and checks the result line's shape.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			label := name + "/untraced"
			if trace {
				label = name + "/traced"
			}
			t.Run(label, func(t *testing.T) {
				e, err := newEnv(name, 7, 400*time.Millisecond, trace, t.TempDir(), tinySizes)
				if err != nil {
					t.Fatal(err)
				}
				defer e.cleanup()
				if err := workloads[name](e); err != nil {
					t.Fatal(err)
				}
				if !trace {
					e.rep.e2e("rss_peak_mb", peakRSSMB(), "MB", 0)
				}
				out := e.rep.result(trace)
				if !out.Correct {
					t.Fatalf("outputs not correct: %v", e.rep.wrong)
				}
				if out.Attempted < 1 {
					t.Fatal("no operation attempted")
				}
				want := endToEndMetrics
				if trace {
					want = layerMetrics
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %g, must be positive", m.name, got.Value)
					}
				}
				if name == "serve-mix" {
					// SSSP results hold +Inf for unreachable vertices and
					// the server answers them with an empty 200 body; the
					// benchmark must count those requests as failed.
					empty := int64(0)
					for reason, n := range e.rep.failures {
						if strings.Contains(reason, emptyBody) {
							empty += n
						}
					}
					if out.Failed == 0 || empty == 0 {
						t.Errorf("serve-mix counted %d failed, %d empty-body responses; want both > 0", out.Failed, empty)
					}
				}
			})
		}
	}
}

// TestServeFailuresFollowSeed checks that two serve-mix runs on one seed
// attempt the same requests and count the same failures: which requests
// meet the SSSP empty-body defect is fixed by the seed, not by timing.
func TestServeFailuresFollowSeed(t *testing.T) {
	var got [2]result
	for i := range got {
		e, err := newEnv("serve-mix", 11, 1500*time.Millisecond, false, t.TempDir(), tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		if err := workloads["serve-mix"](e); err != nil {
			e.cleanup()
			t.Fatal(err)
		}
		got[i] = e.rep.result(false)
		e.cleanup()
	}
	if got[0].Attempted != got[1].Attempted || got[0].Failed != got[1].Failed || got[0].Failed == 0 {
		t.Errorf("same seed: attempted %d and %d, failed %d and %d; want equal, failed > 0",
			got[0].Attempted, got[1].Attempted, got[0].Failed, got[1].Failed)
	}
}

// TestOracleRejects checks that each oracle refuses a perturbed answer.
func TestOracleRejects(t *testing.T) {
	e, err := newEnv("cli-lj", 3, time.Second, false, t.TempDir(), tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	g, err := analog("LJ", 6)
	if err != nil {
		t.Fatal(err)
	}
	src := pickSources(g, e.rng(1), 1)
	or := newOracle(g, src)
	pr := append([]float64(nil), or.pr...)
	pr[0] += 10 * prTolerance
	if or.check("pagerank", 0, nil, pr, nil) == "" {
		t.Error("pagerank oracle accepted a perturbed rank vector")
	}
	if or.check("pagerank", 0, nil, or.pr, nil) != "" {
		t.Error("pagerank oracle refused the reference itself")
	}
	cc := append([]uint64(nil), or.cc...)
	cc[len(cc)-1]++
	if or.check("cc", 0, nil, nil, cc) == "" {
		t.Error("cc oracle accepted a wrong label")
	}
	d := append([]float64(nil), or.sssp[src[0]]...)
	d[int(src[0])] = 1
	if or.check("sssp", src[0], nil, d, nil) == "" {
		t.Error("sssp oracle accepted a wrong distance")
	}
	neg := make([]float64, g.NumVertices())
	neg[0] = -1
	if checkPPR(g, src, neg) == "" {
		t.Error("ppr check accepted a negative value")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the metrics
// the program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the program", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []layerMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		units := map[string]string{}
		for _, m := range want {
			units[m.name] = m.unit
		}
		for _, m := range got {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json metric %s (%s) does not match the program (%q)", kind, m.Name, m.Unit, u)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
}
