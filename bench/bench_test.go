package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// specPath is where BENCHMARK.json sits relative to this package.
var specPath = filepath.Join("..", "BENCHMARK.json")

func quickOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 42, seconds: 0.4, trace: trace, sz: quickSizes, outDir: t.TempDir()}
}

// TestEveryMetricOncePerWorkload runs every declared workload at smoke
// sizes, untraced and traced, and holds the output against
// BENCHMARK.json: exactly the declared names, finite, with their units.
func TestEveryMetricOncePerWorkload(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(quickOptions(t, wl.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", wl.Name, trace, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			declared := spec.EndToEnd
			if trace {
				declared = spec.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", wl.Name, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", wl.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", wl.Name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s is %v", wl.Name, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", wl.Name, d.Name, m.Value)
				}
			}
			if trace {
				checkLayerTable(t, wl.Name, res)
			}
		}
	}
}

// checkLayerTable: the layer rows and the uncovered row partition the
// traced wall-clock, the uncovered row is last, and every stage the run
// went through says how much of it no layer covered.
func checkLayerTable(t *testing.T, workload string, res *result) {
	t.Helper()
	var self float64
	for _, l := range res.Layers {
		self += l.SelfS
	}
	if res.TraceWallS <= 0 || math.Abs(self-res.TraceWallS) > 0.01*res.TraceWallS {
		t.Errorf("%s: self times sum to %.4f s, traced wall-clock is %.4f s", workload, self, res.TraceWallS)
	}
	if last := res.Layers[len(res.Layers)-1]; last.Layer != uncovered || last.SelfS <= 0 || last.SelfS >= res.TraceWallS {
		t.Errorf("%s: last row is %s with %.4f s of %.4f s, want the uncovered part", workload, last.Layer, last.SelfS, res.TraceWallS)
	}
	stages := map[string]stageRow{}
	for _, st := range res.Stages {
		stages[st.Stage] = st
	}
	for _, st := range []string{workload, "wf-coupled", "query-fused", "query-bulk", "api-exec", "replay"} {
		if row := stages[st]; row.WallS <= 0 || row.UncoveredS < 0 || row.UncoveredS >= row.WallS {
			t.Errorf("%s: stage %s has %.4f s uncovered of %.4f s", workload, st, row.UncoveredS, row.WallS)
		}
	}
}

// TestCorruptedReferenceFailsVerification damages each stage's
// reference in turn; every checked operation must then count as failed.
func TestCorruptedReferenceFailsVerification(t *testing.T) {
	b, err := newBench(quickOptions(t, "wf-coupled", false))
	if err != nil {
		t.Fatal(err)
	}
	defer b.cleanup()
	fx, err := b.setup()
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	failedAfter := func(what string, stage func()) {
		t.Helper()
		before := b.col.failed
		stage()
		if b.col.failed == before {
			t.Errorf("%s: corrupted reference went unnoticed", what)
		}
	}

	for name := range fx.wf.ref[0].index {
		fx.wf.ref[0].index[name][0]++
		break
	}
	failedAfter("wf-coupled", func() { b.wfStage(fx.wf, true, stagePlan{stage: "wf-coupled"}) })
	fx.wf.ref[0].tracks++
	failedAfter("wf-attach", func() { b.wfStage(fx.wf, true, stagePlan{stage: "wf-attach"}) })

	fx.query.refFused[0][0]++
	failedAfter("query-fused", func() { b.fusedStage(fx.query, clients, 0, true) })
	fx.query.bulkSum ^= 1
	failedAfter("query-bulk", func() { b.bulkStage(fx.query, 0) })

	for msg := range fx.api.digests {
		fx.api.digests[msg] = "0000000000000000"
	}
	failedAfter("api-exec", func() { b.apiStage(fx.api, 0.1) })
}

// TestCompareRuns: pairs share their weather, so a common slowdown of
// a pair cancels; only disagreement among the pairs makes a row
// unresolved.
func TestCompareRuns(t *testing.T) {
	weather := []float64{100, 130, 98, 135, 102, 128, 100, 133, 99, 101}
	times := func(f ...float64) []float64 {
		out := make([]float64, len(weather))
		for i, v := range weather {
			out[i] = v * f[i%len(f)]
		}
		return out
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
		wins   int
	}{
		{"same under shared weather", weather, times(1.03, 0.98), false, "same", 5},
		{"slower latency", weather, times(1.2), false, "worse", 0},
		{"faster latency", weather, times(0.8), false, "better", 10},
		{"higher rate", weather, times(1.2), true, "better", 10},
		{"lower rate", weather, times(0.8), true, "worse", 0},
		{"pairs disagree", weather, times(0.7, 1.4), false, "unresolved", 5},
		{"pairs disagree on how much worse", weather, times(1.1, 1.6), false, "worse", 0},
	} {
		got := compareRuns(c.a, c.b, c.higher, 0.1)
		if got.verdict != c.want || got.wins != c.wins {
			t.Errorf("%s: %s with %d wins, want %s with %d", c.name, got.verdict, got.wins, c.want, c.wins)
		}
	}
}

// TestQuantileIsFixedPerMetric: the percentile belongs to the metric
// definition and BENCHMARK.json's name says which one it is.
func TestQuantileIsFixedPerMetric(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			for suffix, q := range map[string]float64{"_p50_": 0.5, "_p95_": 0.95, "_p99_": 0.99, "_max_": 1} {
				if strings.Contains(d.name, suffix) && (d.q != q || d.series == "") && !strings.HasPrefix(d.name, "cubecluster.") {
					t.Errorf("%s is defined as the %g-quantile of %q", d.name, d.q, d.series)
				}
			}
		}
	}
	if got := beyond(200, 0.95); got != 10 {
		t.Errorf("beyond(200, 0.95) = %d, want 10", got)
	}
}

// TestSelfTimesPartitionTheWall: a parent with two overlapping children
// and a gap. Overlap is split, the gap is the parent's own.
func TestSelfTimesPartitionTheWall(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := &recorder{}
	root := r.add("bench.root", "", -1, at(0), at(100))
	r.add("a.x", "", root, at(10), at(50))
	r.add("b.y", "", root, at(30), at(70))
	self, wall := r.selfTimes()
	want := []float64{0.040, 0.030, 0.030} // root 0–10 + 70–100; a 10–30 + half of 30–50; b likewise
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-9 {
			t.Errorf("span %d: self %.3f s, want %.3f s", i, self[i], want[i])
		}
	}
	if math.Abs(wall-0.1) > 1e-9 {
		t.Errorf("wall %.3f s, want 0.100 s", wall)
	}
}
