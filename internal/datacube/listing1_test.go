package datacube

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// listing1Cubes builds the operands of the paper's Listing-1 heat-wave
// query (§4.2.2) as the repository benchmark's query-fused workload
// poses it: a 6-hourly temperature cube and a daily baseline cube over
// the same rows.
func listing1Cubes(tb testing.TB, e *Engine, rows, steps int) (temp, base *Cube) {
	tb.Helper()
	rng := rand.New(rand.NewSource(4000))
	field := func(name string, n int) *Cube {
		data := make([][]float32, rows)
		for r := range data {
			data[r] = benchRow(rng, n)
		}
		c, err := e.NewCubeFromFunc(name, []Dimension{{Name: "cell", Size: rows}},
			Dimension{Name: "time", Size: n}, func(row, t int) float32 { return data[row][t] })
		if err != nil {
			tb.Fatal(err)
		}
		return c
	}
	return field("T", steps), field("T", steps/4)
}

// listing1 runs the query — daily maxima, anomaly against the baseline,
// count of runs of ≥ 6 days above 5 K, spatial mean — and frees its
// result.
func listing1(tb testing.TB, temp, base *Cube) float32 {
	out, err := temp.Lazy().
		ReduceGroup("max", 4).
		Intercube(base, "sub").
		Reduce("count_runs_above", 5, 6).
		AggregateRows("avg").
		Execute()
	if err != nil {
		tb.Fatal(err)
	}
	v := out.rowSlice(0)[0]
	if err := out.Delete(); err != nil {
		tb.Fatal(err)
	}
	return v
}

// TestListing1Cost pins what one Listing-1 query costs in quantities
// that do not depend on the host: fused passes, cells, operators and
// allocations. The allocation ceiling is the reading of the scalar
// row-op engine this kernel engine replaced (46 per query on this
// cube); cells and operators are per-query constants of the plan.
func TestListing1Cost(t *testing.T) {
	const rows, steps, queries = 96, 40, 5
	e := NewEngine(Config{Servers: 1, FragmentsPerCube: 2, Metrics: obs.NewRegistry()})
	defer e.Close()
	temp, base := listing1Cubes(t, e, rows, steps)
	want := listing1(t, temp, base)

	before, passes := e.Stats(), e.met.fusedPasses.Value()
	for q := 0; q < queries; q++ {
		if got := listing1(t, temp, base); got != want {
			t.Fatalf("query %d answered %v, the first one %v", q, got, want)
		}
	}
	after := e.Stats()
	if got := e.met.fusedPasses.Value() - passes; got != queries {
		t.Errorf("%v fused passes for %d queries, want one each", got, queries)
	}
	// reducegroup reads rows×steps cells, intercube and reduce a quarter
	// of that each, aggrows one per row
	if got, want := after.CellsProcessed-before.CellsProcessed, int64(queries*rows*(steps+steps/4+steps/4+1)); got != want {
		t.Errorf("%d cells for %d queries, want %d", got, queries, want)
	}
	if got := after.Ops - before.Ops; got != 4*queries {
		t.Errorf("%d operators for %d queries, want 4 each", got, queries)
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(20, func() { listing1(t, temp, base) }); allocs > 46 {
		t.Errorf("%v allocations per query, the scalar engine's 46 is the ceiling", allocs)
	}

	src := temp.rowSlice(0)
	quant, _ := bindRowKernel[float32]("quantile", []float64{0.9})
	dst := make([]float32, steps/4)
	if allocs := testing.AllocsPerRun(20, func() { quant(dst, src, 4) }); allocs > 1 {
		t.Errorf("quantile kernel allocates %v times per call, want its one sort buffer", allocs)
	}
}

// BenchmarkListing1Pass is the query at the repository benchmark's
// query-fused size on one engine.
func BenchmarkListing1Pass(b *testing.B) {
	const rows, steps = 4608, 360
	e := NewEngine(Config{Servers: 1, FragmentsPerCube: 2})
	defer e.Close()
	temp, base := listing1Cubes(b, e, rows, steps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		listing1(b, temp, base)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(rows*steps), "ns/element")
}
