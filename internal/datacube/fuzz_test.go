package datacube

import (
	"math"
	"testing"
)

// FuzzCompile hardens the expression parser: arbitrary input must
// either fail cleanly or produce an evaluable expression — never panic.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{
		"x", "1+2*3", "x>0 ? 1 : 0", "pow(x,2)", "min(x, max(1,2))",
		"((x))", "-x", "!x", "x && 1 || 0", "1e300*1e300", ".5",
		"x ? : 1", "abs(", ")(", "x x", "? :", "1..2", "e", "xx",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Compile(src)
		if err != nil {
			return
		}
		for _, x := range []float64{0, 1, -1, math.Inf(1), math.NaN(), 1e-300} {
			_ = e.Eval(x) // must not panic
		}
	})
}

// FuzzPlan decodes fuzzer bytes into an operator chain and runs it
// three ways — exact, Tolerance(0), Tolerance(eps>0) — over the
// resolution pyramid. Invalid chains must fail identically on every
// path; valid ones must be bit-identical at eps=0 and within the bound
// at eps>0. The high bit of epsSel laces the cube with NaN, ±Inf, ±0 and
// denormals; the eps>0 bound is then not checked (it does not hold for
// coarse blocks whose mean is NaN yet: ROADMAP item 5, "The tolerance
// tier: sound, earning a row, or gone"). The seed corpus
// covers tiered subset/aggrows chains.
func FuzzPlan(f *testing.F) {
	f.Add([]byte{0x00}, uint8(0))                   // apply, exact
	f.Add([]byte{0x09, 0x00}, uint8(1))             // reduce after apply, eps>0
	f.Add([]byte{0x0c, 0x09}, uint8(2))             // subset → reduce (tiered subset chain)
	f.Add([]byte{0x0d, 0x00, 0x09}, uint8(1))       // aggrows barrier → apply → reduce
	f.Add([]byte{0x0c, 0x0d, 0x0c, 0x09}, uint8(2)) // subset/aggrows mix over tiers
	f.Add([]byte{0x1a, 0x23, 0x0e}, uint8(1))       // grouped reduce, stride, aggtrailing
	f.Add([]byte{0x0f, 0x09}, uint8(2))             // subsetrows barrier → reduce
	f.Add([]byte{0x1a, 0x31, 0x0d}, uint8(0x80))    // laced: grouped max, run count, aggrows

	exprs := []string{"x*2", "x+1", "x>1 ? x : -x", "abs(x)-0.5"}
	rops := []string{"max", "min", "sum", "avg", "std", "count_above", "count_runs_above",
		"longest_run_below", "quantile"}

	f.Fuzz(func(t *testing.T, prog []byte, epsSel uint8) {
		if len(prog) > 8 {
			prog = prog[:8]
		}
		e := NewEngine(Config{Servers: 2, FragmentsPerCube: 3})
		defer e.Close()
		const width = 12
		lace := epsSel&0x80 != 0
		mk := func(name string) *Cube {
			c, err := e.NewCubeFromFunc(name,
				[]Dimension{{Name: "lat", Size: 2}, {Name: "lon", Size: 4}},
				Dimension{Name: "time", Size: width},
				func(row, tt int) float32 {
					if lace {
						return laced(row, tt)
					}
					return float32((row*37+tt*5)%23) - 7.5
				})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		build := func(name string) *Plan {
			p := mk(name).Lazy()
			for _, b := range prog {
				op, arg := int(b&7), int(b>>3)
				switch op {
				case 0:
					p = p.Apply(exprs[arg%len(exprs)])
				case 1:
					p = p.Reduce(rops[arg%len(rops)])
				case 2:
					p = p.ReduceGroup(rops[arg%len(rops)], 1+arg%width)
				case 3:
					p = p.ReduceStride(rops[arg%len(rops)], 1+arg%width)
				case 4:
					p = p.Subset(arg%width, width)
				case 5:
					p = p.AggregateRows(rops[arg%len(rops)])
				case 6:
					p = p.AggregateTrailing(rops[arg%len(rops)])
				case 7:
					p = p.SubsetRows(arg%8, 8)
				}
			}
			return p
		}
		eps := []float64{0, 0.05, 0.5}[int(epsSel&0x7f)%3]

		exact, errExact := build("f-exact").Execute()
		zero, errZero := build("f-zero").Tolerance(0).Execute()
		tol, errTol := build("f-tol").Tolerance(eps).Execute()
		if (errExact == nil) != (errZero == nil) || (errExact == nil) != (errTol == nil) {
			t.Fatalf("validity diverged: exact=%v zero=%v tol=%v", errExact, errZero, errTol)
		}
		if errExact != nil {
			return
		}
		requireSameCube(t, "fuzz-tolerance-zero", zero, exact)
		if eps > 0 {
			if !lace {
				requireToleranceBound(t, tol, exact, eps)
			}
		} else {
			requireSameCube(t, "fuzz-eps0", tol, exact)
		}
	})
}
