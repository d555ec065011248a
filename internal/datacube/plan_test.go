package datacube

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// grid2Cube builds a two-explicit-dim cube (so aggtrailing is legal)
// with deterministic contents.
func grid2Cube(t *testing.T, e *Engine, nlat, nlon, n int) *Cube {
	t.Helper()
	return gridCubeFrom(t, e, nlat, nlon, n, func(row, tt int) float32 { return float32((row*37+tt*5)%23) - 7.5 })
}

// lacedCube is grid2Cube over values laced with NaN, ±Inf, ±0 and
// denormals (rowkernel_test.go), which every path must carry alike.
func lacedCube(t *testing.T, e *Engine, nlat, nlon, n int) *Cube {
	t.Helper()
	return gridCubeFrom(t, e, nlat, nlon, n, laced)
}

func gridCubeFrom(t *testing.T, e *Engine, nlat, nlon, n int, f func(row, tt int) float32) *Cube {
	t.Helper()
	c, err := e.NewCubeFromFunc("seq2",
		[]Dimension{{Name: "lat", Size: nlat}, {Name: "lon", Size: nlon}},
		Dimension{Name: "time", Size: n}, f)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// requireSameCube asserts byte-for-byte equal payloads and shapes.
func requireSameCube(t *testing.T, label string, got, want *Cube) {
	t.Helper()
	if got.Rows() != want.Rows() || got.ImplicitLen() != want.ImplicitLen() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows(), got.ImplicitLen(), want.Rows(), want.ImplicitLen())
	}
	gv, wv := got.Values(), want.Values()
	for r := range wv {
		for i := range wv[r] {
			if math.Float32bits(gv[r][i]) != math.Float32bits(wv[r][i]) {
				t.Fatalf("%s: row %d idx %d: %v != %v (bits %08x vs %08x)",
					label, r, i, gv[r][i], wv[r][i], math.Float32bits(gv[r][i]), math.Float32bits(wv[r][i]))
			}
		}
	}
}

func idSet(e *Engine) map[string]bool {
	out := make(map[string]bool)
	for _, id := range e.List() {
		out[id] = true
	}
	return out
}

func TestPlanLinearMatchesEager(t *testing.T) {
	e := newTestEngine(t)
	src := grid2Cube(t, e, 3, 4, 24)

	// eager reference chain
	a, err := src.ReduceGroup("max", 4)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := e.NewCubeFromFunc("base", src.ExplicitDims(), Dimension{Name: "time", Size: 6},
		func(row, tt int) float32 { return float32(row - tt) })
	if err != nil {
		t.Fatal(err)
	}
	bseq, err := a.Intercube(bl, "sub")
	if err != nil {
		t.Fatal(err)
	}
	cseq, err := bseq.Apply("x>0 ? x : 0")
	if err != nil {
		t.Fatal(err)
	}
	want, err := cseq.Reduce("sum")
	if err != nil {
		t.Fatal(err)
	}

	got, err := src.Lazy().ReduceGroup("max", 4).Intercube(bl, "sub").Apply("x>0 ? x : 0").Reduce("sum").Execute()
	if err != nil {
		t.Fatal(err)
	}
	requireSameCube(t, "linear", got, want)
	if !strings.Contains(got.Description(), "fused(") {
		t.Fatalf("fused provenance missing: %q", got.Description())
	}
}

func TestPlanKeepMaterializesIntermediate(t *testing.T) {
	e := newTestEngine(t)
	src := seqCube(t, e, 4, 8)
	before := idSet(e)
	got, err := src.Lazy().Apply("x*2").Keep().Reduce("max").Execute()
	if err != nil {
		t.Fatal(err)
	}
	var fresh []string
	for _, id := range e.List() {
		if !before[id] {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) != 2 {
		t.Fatalf("new cubes = %v, want kept intermediate + result", fresh)
	}
	// the kept cube holds the materialized first stage
	var kept *Cube
	for _, id := range fresh {
		if id != got.ID() {
			kept, _ = e.Get(id)
		}
	}
	if kept == nil {
		t.Fatal("kept intermediate not registered")
	}
	wantKept, err := src.Apply("x*2")
	if err != nil {
		t.Fatal(err)
	}
	requireSameCube(t, "kept", kept, wantKept)
}

func TestPlanBarrierAndResidency(t *testing.T) {
	e := newTestEngine(t)
	src := grid2Cube(t, e, 3, 4, 8)
	before := idSet(e)

	// row-local → barrier → row-local: the plan must materialize at the
	// barrier and clean the unkept intermediate up afterwards
	got, err := src.Lazy().Apply("x+1").AggregateRows("max").Apply("x*10").Execute()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := src.Apply("x+1")
	bagg, err := a.AggregateRows("max")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := bagg.Apply("x*10")
	requireSameCube(t, "barrier", got, want)

	var fresh []string
	for _, id := range e.List() {
		if !before[id] && id != a.ID() && id != bagg.ID() && id != want.ID() {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) != 1 || fresh[0] != got.ID() {
		t.Fatalf("plan left cubes %v, want only result %s", fresh, got.ID())
	}
}

func TestPlanErrorsLeaveNoResidue(t *testing.T) {
	e := newTestEngine(t)
	src := grid2Cube(t, e, 2, 3, 12)
	other, err := e.NewCubeFromFunc("o", []Dimension{{Name: "r", Size: 6}},
		Dimension{Name: "time", Size: 5}, func(int, int) float32 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		plan  func() (*Cube, error)
		eager func() (*Cube, error)
	}{
		{"unknown-rowop",
			func() (*Cube, error) { return src.Lazy().Reduce("nosuchop").Execute() },
			func() (*Cube, error) { return src.Reduce("nosuchop") }},
		{"group-indivisible",
			func() (*Cube, error) { return src.Lazy().ReduceGroup("max", 5).Execute() },
			func() (*Cube, error) { return src.ReduceGroup("max", 5) }},
		{"stride-indivisible",
			func() (*Cube, error) { return src.Lazy().ReduceStride("max", 7).Execute() },
			func() (*Cube, error) { return src.ReduceStride("max", 7) }},
		{"subset-range",
			func() (*Cube, error) { return src.Lazy().Subset(4, 20).Execute() },
			func() (*Cube, error) { return src.Subset(4, 20) }},
		{"intercube-shape",
			func() (*Cube, error) { return src.Lazy().Intercube(other, "sub").Execute() },
			func() (*Cube, error) { return src.Intercube(other, "sub") }},
		{"intercube-op",
			func() (*Cube, error) { return src.Lazy().Intercube(src, "xor").Execute() },
			func() (*Cube, error) { return src.Intercube(src, "xor") }},
		{"bad-expr",
			func() (*Cube, error) { return src.Lazy().Apply("x +* 2").Execute() },
			func() (*Cube, error) { return src.Apply("x +* 2") }},
		{"aggtrailing-1dim",
			func() (*Cube, error) {
				return src.Lazy().AggregateRows("max").AggregateTrailing("max").Execute()
			},
			func() (*Cube, error) {
				a, err := src.AggregateRows("max")
				if err != nil {
					return nil, err
				}
				defer a.Delete()
				return a.AggregateTrailing("max")
			}},
		{"mid-chain-after-valid-prefix",
			func() (*Cube, error) { return src.Lazy().Apply("x+1").ReduceGroup("max", 5).Execute() },
			func() (*Cube, error) {
				a, err := src.Apply("x+1")
				if err != nil {
					return nil, err
				}
				defer a.Delete()
				return a.ReduceGroup("max", 5)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := idSet(e)
			_, planErr := tc.plan()
			if planErr == nil {
				t.Fatal("plan accepted invalid chain")
			}
			_, eagerErr := tc.eager()
			if eagerErr == nil {
				t.Fatal("eager accepted invalid chain")
			}
			if !strings.Contains(planErr.Error(), eagerErr.Error()) {
				t.Fatalf("plan error %q does not carry eager error %q", planErr, eagerErr)
			}
			after := idSet(e)
			for id := range after {
				if !before[id] {
					t.Fatalf("failed plan leaked cube %s", id)
				}
			}
		})
	}

	if _, err := src.Lazy().Execute(); err == nil {
		t.Fatal("empty plan accepted")
	}
	if _, err := Branch().Apply("x").Execute(); err == nil {
		t.Fatal("sourceless plan accepted")
	}
	if _, err := src.Lazy().Keep().Execute(); err == nil {
		t.Fatal("Keep on empty plan accepted")
	}
	if _, err := src.Lazy().Apply("x").ExecuteBranches(); err == nil {
		t.Fatal("ExecuteBranches without branches accepted")
	}
	if _, err := src.Lazy().ExecuteBranches(src.Lazy()); err == nil {
		t.Fatal("branch with its own source accepted")
	}
	if _, err := src.Lazy().ExecuteBranches(Branch().AggregateRows("max")); err == nil {
		t.Fatal("barrier op inside branch accepted")
	}
	if _, err := src.Lazy().ExecuteBranches(Branch().Apply("x").Keep()); err == nil {
		t.Fatal("Keep inside branch accepted")
	}
}

func TestExecuteBranchesMatchesEager(t *testing.T) {
	e := newTestEngine(t)
	src := grid2Cube(t, e, 3, 4, 24)
	bl, err := e.NewCubeFromFunc("base", src.ExplicitDims(), Dimension{Name: "time", Size: 6},
		func(row, tt int) float32 { return float32(tt - row) })
	if err != nil {
		t.Fatal(err)
	}

	// eager reference: shared prefix, three consumers
	daily, err := src.ReduceGroup("max", 4)
	if err != nil {
		t.Fatal(err)
	}
	anom, err := daily.Intercube(bl, "sub")
	if err != nil {
		t.Fatal(err)
	}
	w0, err := anom.Reduce("max")
	if err != nil {
		t.Fatal(err)
	}
	m1, err := anom.Apply("x>0 ? 1 : 0")
	if err != nil {
		t.Fatal(err)
	}
	w1, err := m1.Reduce("sum")
	if err != nil {
		t.Fatal(err)
	}

	outs, err := src.Lazy().ReduceGroup("max", 4).Intercube(bl, "sub").ExecuteBranches(
		Branch().Reduce("max"),
		Branch().Apply("x>0 ? 1 : 0").Reduce("sum"),
		Branch(), // identity: the shared prefix itself
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("outputs = %d", len(outs))
	}
	requireSameCube(t, "branch0", outs[0], w0)
	requireSameCube(t, "branch1", outs[1], w1)
	requireSameCube(t, "branch-identity", outs[2], anom)

	// the pass must not have materialized the prefix as a cube: only the
	// three outputs are new relative to the eager chain's registrations
	if e.met.fusedPasses.Value() < 1 {
		t.Fatal("fused pass not counted")
	}
	if e.met.fusedStages.Value() < 5 {
		t.Fatalf("fused stages = %v", e.met.fusedStages.Value())
	}
}

// randStep mutates both representations of one chain the same way.
type randStep struct {
	toPlan func(*Plan) *Plan
	eager  func(*Cube) (*Cube, error)
}

// divisorsOf lists the divisors of n (including 1 and n).
func divisorsOf(n int) []int {
	var out []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

// genStep picks one valid operator for the current eager shape.
func genStep(t *testing.T, rng *rand.Rand, e *Engine, cur *Cube) randStep {
	t.Helper()
	exprs := []string{"x*2", "x+1", "x>3 ? 1 : 0", "abs(x)-2", "x/4"}
	type rowOpCall struct {
		name   string
		params []float64
	}
	calls := []rowOpCall{{name: "max"}, {name: "min"}, {name: "sum"}, {name: "avg"}, {name: "std"},
		{"count_above", []float64{1}}, {"count_below", []float64{0}},
		{"longest_run_above", []float64{0}}, {"longest_run_below", []float64{2.5}},
		{"count_runs_above", []float64{0, 2}}, {"count_runs_below", []float64{1, 1}},
		{"quantile", []float64{0.5}}}
	call := calls[rng.Intn(len(calls))]
	op, params := call.name, call.params
	width := cur.ImplicitLen()
	for {
		switch rng.Intn(10) {
		case 0, 1:
			ex := exprs[rng.Intn(len(exprs))]
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.Apply(ex) },
				eager:  func(c *Cube) (*Cube, error) { return c.Apply(ex) },
			}
		case 2:
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.Reduce(op, params...) },
				eager:  func(c *Cube) (*Cube, error) { return c.Reduce(op, params...) },
			}
		case 3:
			divs := divisorsOf(width)
			g := divs[rng.Intn(len(divs))]
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.ReduceGroup(op, g, params...) },
				eager:  func(c *Cube) (*Cube, error) { return c.ReduceGroup(op, g, params...) },
			}
		case 4:
			divs := divisorsOf(width)
			s := divs[rng.Intn(len(divs))]
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.ReduceStride(op, s, params...) },
				eager:  func(c *Cube) (*Cube, error) { return c.ReduceStride(op, s, params...) },
			}
		case 5:
			if width < 2 {
				continue
			}
			lo := rng.Intn(width)
			hi := lo + 1 + rng.Intn(width-lo)
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.Subset(lo, hi) },
				eager:  func(c *Cube) (*Cube, error) { return c.Subset(lo, hi) },
			}
		case 6:
			rows := cur.Rows()
			other, err := e.NewCubeFromFunc(fmt.Sprintf("o%d", rng.Int63()),
				[]Dimension{{Name: "r", Size: rows}},
				Dimension{Name: "time", Size: width},
				func(row, tt int) float32 { return float32((row+tt)%5) - 1.5 })
			if err != nil {
				t.Fatal(err)
			}
			iops := []string{"add", "sub", "mul", "div"}
			op := iops[rng.Intn(len(iops))]
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.Intercube(other, op) },
				eager:  func(c *Cube) (*Cube, error) { return c.Intercube(other, op) },
			}
		case 7:
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.AggregateRows(op, params...) },
				eager:  func(c *Cube) (*Cube, error) { return c.AggregateRows(op, params...) },
			}
		case 8:
			dims := cur.ExplicitDims()
			if len(dims) < 2 {
				continue
			}
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.AggregateTrailing(op, params...) },
				eager:  func(c *Cube) (*Cube, error) { return c.AggregateTrailing(op, params...) },
			}
		case 9:
			dims := cur.ExplicitDims()
			if len(dims) == 0 || dims[0].Size < 2 {
				continue
			}
			lead := dims[0].Size
			lo := rng.Intn(lead)
			hi := lo + 1 + rng.Intn(lead-lo)
			return randStep{
				toPlan: func(p *Plan) *Plan { return p.SubsetRows(lo, hi) },
				eager:  func(c *Cube) (*Cube, error) { return c.SubsetRows(lo, hi) },
			}
		}
	}
}

// TestPlanRandomChainsMatchEager drives ~200 seeded random operator
// chains through Plan.Execute and step-by-step eager application and
// requires bitwise-identical outputs, correct Keep materialization
// counts, and no leaked intermediates; every chain then runs a second
// time over a copy of its source laced with special values.
func TestPlanRandomChainsMatchEager(t *testing.T) {
	e := NewEngine(Config{Servers: 3, FragmentsPerCube: 4})
	defer e.Close()
	rng := rand.New(rand.NewSource(20260805))
	widths := []int{1, 4, 6, 8, 12, 24}

	for cases := 0; cases < 200; cases++ {
		nlat, nlon := 1+rng.Intn(3), 1+rng.Intn(4)
		width := widths[rng.Intn(len(widths))]
		src := grid2Cube(t, e, nlat, nlon, width)
		baseline := idSet(e)
		delete(baseline, src.ID())

		plan := src.Lazy()
		eagerCur := src
		var eagerTemps, others []*Cube
		var chain []randStep
		keeps, lastKept := 0, false
		nsteps := 1 + rng.Intn(6)
		for s := 0; s < nsteps; s++ {
			preOthers := idSet(e)
			st := genStep(t, rng, e, eagerCur)
			chain = append(chain, st)
			for _, id := range e.List() {
				if !preOthers[id] { // intercube operand created by genStep
					oc, _ := e.Get(id)
					others = append(others, oc)
				}
			}
			plan = st.toPlan(plan)
			next, err := st.eager(eagerCur)
			if err != nil {
				t.Fatalf("case %d step %d: eager: %v", cases, s, err)
			}
			if eagerCur != src {
				eagerTemps = append(eagerTemps, eagerCur)
			}
			eagerCur = next
			lastKept = false
			if rng.Intn(100) < 15 {
				plan = plan.Keep()
				keeps++
				lastKept = true
			}
		}

		preExec := idSet(e)
		got, err := plan.Execute()
		if err != nil {
			t.Fatalf("case %d: Execute: %v", cases, err)
		}
		requireSameCube(t, fmt.Sprintf("case %d", cases), got, eagerCur)

		var fresh []*Cube
		for _, id := range e.List() {
			if !preExec[id] {
				fc, _ := e.Get(id)
				fresh = append(fresh, fc)
			}
		}
		wantNew := keeps + 1
		if lastKept {
			wantNew = keeps
		}
		if len(fresh) != wantNew {
			t.Fatalf("case %d: plan registered %d cubes, want %d (keeps=%d lastKept=%v)",
				cases, len(fresh), wantNew, keeps, lastKept)
		}

		// tier-aware replays of the same chain (without Keep marks):
		// Tolerance(0) must stay bit-identical to the eager reference, and
		// Tolerance(eps>0) must satisfy the declared bound.
		replay := func(from *Cube) *Plan {
			p := from.Lazy()
			for _, st := range chain {
				p = st.toPlan(p)
			}
			return p
		}
		got0, err := replay(src).Tolerance(0).Execute()
		if err != nil {
			t.Fatalf("case %d: Tolerance(0) replay: %v", cases, err)
		}
		requireSameCube(t, fmt.Sprintf("case %d tolerance-zero", cases), got0, eagerCur)
		_ = got0.Delete()

		eps := []float64{0.05, 0.5}[rng.Intn(2)]
		gotE, err := replay(src).Tolerance(eps).Execute()
		if err != nil {
			t.Fatalf("case %d: Tolerance(%g) replay: %v", cases, eps, err)
		}
		requireToleranceBound(t, gotE, eagerCur, eps)
		_ = gotE.Delete()

		// The same chain once more over a laced copy of the source: fused,
		// eager and Tolerance(0) must carry the special values alike. The
		// ε > 0 bound is not checked on this copy, only that the pass runs:
		// a coarse block whose mean is NaN gets the zero-width interval a
		// counting op returns for NaN bounds and is accepted (ROADMAP
		// item 5, "The tolerance tier: sound, earning a row, or gone").
		lsrc := lacedCube(t, e, nlat, nlon, width)
		lcur := lsrc
		for s, st := range chain {
			next, err := st.eager(lcur)
			if err != nil {
				t.Fatalf("case %d step %d: laced eager: %v", cases, s, err)
			}
			if lcur != lsrc {
				eagerTemps = append(eagerTemps, lcur)
			}
			lcur = next
		}
		for _, p := range []*Plan{replay(lsrc), replay(lsrc).Tolerance(0)} {
			lgot, err := p.Execute()
			if err != nil {
				t.Fatalf("case %d: laced replay: %v", cases, err)
			}
			requireSameCube(t, fmt.Sprintf("case %d laced", cases), lgot, lcur)
			_ = lgot.Delete()
		}
		lgotE, err := replay(lsrc).Tolerance(eps).Execute()
		if err != nil {
			t.Fatalf("case %d: laced Tolerance(%g) replay: %v", cases, eps, err)
		}
		_ = lgotE.Delete()
		eagerTemps = append(eagerTemps, lcur, lsrc)

		// free everything this case created and verify the engine is back
		// to its pre-case population
		for _, c := range fresh {
			_ = c.Delete()
		}
		for _, c := range eagerTemps {
			_ = c.Delete()
		}
		_ = eagerCur.Delete()
		for _, c := range others {
			_ = c.Delete()
		}
		_ = src.Delete()
		for _, id := range e.List() {
			if !baseline[id] {
				t.Fatalf("case %d: cube %s leaked", cases, id)
			}
		}
	}
}
