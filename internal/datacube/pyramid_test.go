package datacube

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// smoothCube builds a cube whose rows vary slowly (neighboring rows
// differ by small amounts), the regime where coarse tiers pay off.
func smoothCube(t *testing.T, e *Engine, rows, n int) *Cube {
	t.Helper()
	c, err := e.NewCubeFromFunc("smooth",
		[]Dimension{{Name: "cell", Size: rows}},
		Dimension{Name: "time", Size: n},
		func(row, tt int) float32 {
			return float32(20 + 0.01*float64(row) + 3*math.Sin(float64(tt)/5))
		})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTierConstruction(t *testing.T) {
	e := newTestEngine(t)
	c := seqCube(t, e, 10, 4) // value = row*100 + t
	tiers := c.ensureTiers()
	if len(tiers) != 3 {
		t.Fatalf("tiers = %d, want 3 (default pyramid levels)", len(tiers))
	}
	for li, tr := range tiers {
		f := 1 << (li + 1)
		wantRows := (10 + f - 1) / f
		if tr.factor != f || tr.rows != wantRows {
			t.Fatalf("level %d: factor=%d rows=%d, want %d/%d", li+1, tr.factor, tr.rows, f, wantRows)
		}
		for crow := 0; crow < tr.rows; crow++ {
			r0, r1 := crow*f, crow*f+f
			if r1 > 10 {
				r1 = 10
			}
			for tt := 0; tt < 4; tt++ {
				var s float64
				for r := r0; r < r1; r++ {
					s += float64(r*100 + tt)
				}
				want := float32(s / float64(r1-r0))
				if got := tr.mean[crow*4+tt]; got != want {
					t.Fatalf("level %d crow %d t %d: mean %g, want %g", li+1, crow, tt, got, want)
				}
			}
			// spread must bound every covered deviation
			for r := r0; r < r1; r++ {
				for tt := 0; tt < 4; tt++ {
					d := math.Abs(float64(r*100+tt) - float64(tr.mean[crow*4+tt]))
					if d > float64(tr.spread[crow]) {
						t.Fatalf("level %d crow %d: |v-mean|=%g exceeds spread %g", li+1, crow, d, tr.spread[crow])
					}
				}
			}
		}
	}
	if c.TierLevels() != 3 {
		t.Fatalf("TierLevels = %d, want 3", c.TierLevels())
	}
	if got, frag := c.Bytes(), int64(10*4*4); got <= frag {
		t.Fatalf("Bytes() = %d, want > fragment payload %d once tiers are built", got, frag)
	}
}

func TestPyramidDisabled(t *testing.T) {
	e := NewEngine(Config{Servers: 2, PyramidLevels: -1})
	t.Cleanup(e.Close)
	c := seqCube(t, e, 16, 4)
	if tiers := c.ensureTiers(); tiers != nil {
		t.Fatalf("disabled pyramid built %d tiers", len(tiers))
	}
	// tolerant plans silently run exact
	got, err := c.Lazy().Apply("x*2").Tolerance(0.5).Execute()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Apply("x*2")
	if err != nil {
		t.Fatal(err)
	}
	requireSameCube(t, "disabled-pyramid", got, want)
}

func TestConcurrentTierBuild(t *testing.T) {
	e := newTestEngine(t)
	c := smoothCube(t, e, 64, 8)
	var wg sync.WaitGroup
	results := make([][]tier, 8)
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = c.ensureTiers()
		}()
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatal("concurrent ensureTiers returned distinct pyramids")
		}
	}
}

func TestToleranceZeroBitIdentical(t *testing.T) {
	e := newTestEngine(t)
	c := smoothCube(t, e, 40, 12)
	want, err := c.Lazy().Apply("x-20").ReduceGroup("max", 4).Execute()
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Lazy().Apply("x-20").ReduceGroup("max", 4).Tolerance(0).Execute()
	if err != nil {
		t.Fatal(err)
	}
	requireSameCube(t, "tolerance-zero", got, want)
	if c.TierLevels() != 0 {
		t.Fatalf("Tolerance(0) built %d tiers; must not touch the pyramid", c.TierLevels())
	}
}

func TestToleranceBoundLinear(t *testing.T) {
	e := newTestEngine(t)
	c := smoothCube(t, e, 96, 16)
	exact, err := c.Lazy().Apply("x*1.5-10").Reduce("avg").Execute()
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.25
	got, err := c.Lazy().Apply("x*1.5-10").Reduce("avg").Tolerance(eps).Execute()
	if err != nil {
		t.Fatal(err)
	}
	requireToleranceBound(t, got, exact, eps)
	st := e.Stats()
	if st.CellsProcessed == 0 {
		t.Fatal("no cell accounting recorded")
	}
}

func TestToleranceRefinesWhereNeeded(t *testing.T) {
	e := newTestEngine(t)
	// smooth background with hard spikes on a few rows: the spiky blocks
	// must refine to exact, the rest may stay coarse
	c, err := e.NewCubeFromFunc("spiky",
		[]Dimension{{Name: "cell", Size: 64}},
		Dimension{Name: "time", Size: 8},
		func(row, tt int) float32 {
			v := float32(10)
			if row == 17 || row == 40 {
				v += 500
			}
			return v + float32(tt)
		})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := c.Lazy().Reduce("max").Execute()
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.5
	got, err := c.Lazy().Reduce("max").Tolerance(eps).Execute()
	if err != nil {
		t.Fatal(err)
	}
	requireToleranceBound(t, got, exact, eps)
	// the spike rows sit in refined blocks, so their values are exact
	for _, row := range []int{17, 40} {
		g, _ := got.Row(row)
		w, _ := exact.Row(row)
		if g[0] != w[0] {
			t.Fatalf("spike row %d: got %g, want exact %g", row, g[0], w[0])
		}
	}
}

func TestToleranceBranches(t *testing.T) {
	e := newTestEngine(t)
	c := smoothCube(t, e, 80, 24)
	base, err := e.NewCubeFromFunc("base",
		[]Dimension{{Name: "cell", Size: 80}},
		Dimension{Name: "time", Size: 24},
		func(row, tt int) float32 { return float32(19 + 0.01*float64(row)) })
	if err != nil {
		t.Fatal(err)
	}
	run := func(eps float64) []*Cube {
		t.Helper()
		p := c.Lazy().Intercube(base, "sub")
		if eps > 0 {
			p = p.Tolerance(eps)
		}
		outs, err := p.ExecuteBranches(
			Branch().Reduce("max"),
			Branch().Reduce("count_above", 2),
		)
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	exact := run(0)
	const eps = 0.3
	got := run(eps)
	for bi := range exact {
		requireToleranceBound(t, got[bi], exact[bi], eps)
	}
}

func TestToleranceFallsBackWithoutIntervalForm(t *testing.T) {
	if err := RegisterRowOp("test_noival", func(row []float32, _ []float64) float64 {
		var s float64
		for _, v := range row {
			s += float64(v)
		}
		return s
	}); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t)
	c := smoothCube(t, e, 32, 8)
	want, err := c.Lazy().Reduce("test_noival").Execute()
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Lazy().Reduce("test_noival").Tolerance(0.5).Execute()
	if err != nil {
		t.Fatal(err)
	}
	requireSameCube(t, "no-interval-fallback", got, want) // exact fallback: bit-identical
}

func TestAdoptRebindsIdentity(t *testing.T) {
	e := newTestEngine(t)
	a := seqCube(t, e, 8, 4)
	id := a.ID()
	b := smoothCube(t, e, 4, 4)
	oldBID := b.ID()
	if err := e.Adopt(id, b); err != nil {
		t.Fatal(err)
	}
	got, err := e.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got != b || b.ID() != id {
		t.Fatalf("Adopt did not rebind: got %p id %q", got, b.ID())
	}
	if _, err := e.Get(oldBID); err == nil {
		t.Fatalf("old id %q still resolves after Adopt", oldBID)
	}
	if err := e.Adopt("cube-9999", a); err == nil {
		t.Fatal("Adopt of unknown id succeeded")
	}
}

// requireToleranceBound asserts got stays within eps of exact, with a
// small float32 slack (interval endpoints round to nearest at every
// stage, so the guarantee is eps up to accumulated ulps).
func requireToleranceBound(t *testing.T, got, exact *Cube, eps float64) {
	t.Helper()
	if got.Rows() != exact.Rows() || got.ImplicitLen() != exact.ImplicitLen() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", got.Rows(), got.ImplicitLen(), exact.Rows(), exact.ImplicitLen())
	}
	gv, ev := got.Values(), exact.Values()
	var worst, maxAbs float64
	for r := range gv {
		for i := range gv[r] {
			d := math.Abs(float64(gv[r][i]) - float64(ev[r][i]))
			if d > worst {
				worst = d
			}
			if a := math.Abs(float64(ev[r][i])); a > maxAbs {
				maxAbs = a
			}
		}
	}
	slack := 1e-3 + 1e-5*maxAbs
	if worst > eps+slack {
		t.Fatalf("tolerance violated: max |got-exact| = %g > eps %g (+slack %g)", worst, eps, slack)
	}
}

func TestEvalIntervalSoundness(t *testing.T) {
	exprs := []string{
		"x*2-5",
		"abs(x)+1",
		"x>0 ? x : 0",
		"x*x",
		"min(x, 10)*max(x, -3)",
		"(x-2)/(x+50)",
		"x>=1 && x<4 ? sqrt(abs(x)) : exp(x/20)",
		"!(x>0)",
		"pow(x, 2)",
	}
	rng := rand.New(rand.NewSource(42))
	for _, src := range exprs {
		ex, err := Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for trial := 0; trial < 200; trial++ {
			a := rng.Float64()*20 - 10
			b := a + rng.Float64()*5
			lo, hi := ex.EvalInterval(a, b)
			for s := 0; s <= 10; s++ {
				x := a + (b-a)*float64(s)/10
				v := ex.Eval(x)
				if math.IsNaN(v) {
					continue
				}
				if !(math.IsNaN(lo) || math.IsNaN(hi)) && (v < lo-1e-9 || v > hi+1e-9) {
					t.Fatalf("%s over [%g,%g]: value %g at x=%g escapes [%g,%g]", src, a, b, v, x, lo, hi)
				}
			}
		}
	}
}

// TestRowOpIntervalSoundness checks the interval form the tolerant pass
// runs (compileIReduce: kernel calls on the corner rows for a monotone
// built-in, the registered RowIvalFunc otherwise) and the registered form
// LookupRowOpInterval hands to external callers against the op itself.
func TestRowOpIntervalSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []struct {
		name   string
		params []float64
	}{
		{"max", nil}, {"min", nil}, {"sum", nil}, {"avg", nil}, {"std", nil},
		{"count_above", []float64{1}}, {"count_below", []float64{1}},
		{"longest_run_above", []float64{0.5}}, {"longest_run_below", []float64{0.5}},
		{"count_runs_above", []float64{0.5, 2}}, {"count_runs_below", []float64{0.5, 2}},
		{"quantile", []float64{0.9}},
	}
	for _, tc := range ops {
		op, ok := LookupRowOp(tc.name)
		if !ok {
			t.Fatalf("row op %s missing", tc.name)
		}
		ivf, ok := LookupRowOpInterval(tc.name)
		if !ok {
			t.Fatalf("interval form for %s missing", tc.name)
		}
		reduce, ok := compileIReduce(planStep{rowOp: tc.name, params: tc.params})
		if !ok {
			t.Fatalf("compiled interval form for %s missing", tc.name)
		}
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(12)
			lo := make([]float32, n)
			hi := make([]float32, n)
			row := make([]float32, n)
			for i := 0; i < n; i++ {
				a := float32(rng.Float64()*6 - 3)
				w := float32(rng.Float64() * 2)
				lo[i], hi[i] = a, a+w
				row[i] = a + float32(rng.Float64())*w
			}
			bl, bh := ivf(lo, hi, tc.params)
			v := op(row, tc.params)
			if v < bl-1e-9 || v > bh+1e-9 {
				t.Fatalf("%s trial %d: op=%g outside [%g,%g]\nlo=%v\nhi=%v\nrow=%v",
					tc.name, trial, v, bl, bh, lo, hi, row)
			}
			// the compiled form rounds mid and bounds to float32 alike;
			// rounding is monotone, so the 1e-9 of slack above is at most
			// one float32 step here
			var m, cl, ch [1]float32
			reduce(m[:], cl[:], ch[:], row, lo, hi, n)
			if m[0] != float32(v) {
				t.Fatalf("%s trial %d: compiled midpoint %g, op %g", tc.name, trial, m[0], v)
			}
			if m[0] < math.Nextafter32(cl[0], float32(math.Inf(-1))) || m[0] > math.Nextafter32(ch[0], float32(math.Inf(1))) {
				t.Fatalf("%s trial %d: compiled op=%g outside [%g,%g]\nlo=%v\nhi=%v\nrow=%v",
					tc.name, trial, m[0], cl[0], ch[0], lo, hi, row)
			}
		}
	}
}

func TestTolerancePropertySweep(t *testing.T) {
	// randomized sweep over chains and tolerances: every tolerant result
	// must satisfy its declared bound against the exact plan
	rng := rand.New(rand.NewSource(20260807))
	e := newTestEngine(t)
	for trial := 0; trial < 40; trial++ {
		rows := []int{7, 16, 33, 64}[rng.Intn(4)]
		n := []int{4, 8, 12}[rng.Intn(3)]
		scale := rng.Float64() * 4
		c, err := e.NewCubeFromFunc(fmt.Sprintf("p%d", trial),
			[]Dimension{{Name: "cell", Size: rows}},
			Dimension{Name: "time", Size: n},
			func(row, tt int) float32 {
				return float32(10 + scale*math.Sin(float64(row)/9) + float64(tt%3))
			})
		if err != nil {
			t.Fatal(err)
		}
		variant := rng.Intn(3)
		build := func() *Plan {
			p := c.Lazy().Apply("x-10")
			switch variant {
			case 0:
				p = p.Reduce("avg")
			case 1:
				p = p.ReduceGroup("max", n)
			case 2:
				p = p.Subset(0, n/2+1).Reduce("sum")
			}
			return p
		}
		exact, err := build().Execute()
		if err != nil {
			t.Fatal(err)
		}
		eps := []float64{0.01, 0.1, 0.5, 2}[rng.Intn(4)]
		got, err := build().Tolerance(eps).Execute()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("trial %d: rows=%d n=%d variant=%d eps=%g", trial, rows, n, variant, eps)
		requireToleranceBound(t, got, exact, eps)
	}
}
