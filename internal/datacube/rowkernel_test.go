package datacube

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// scalarBodies is the oracle of TestRowKernelsMatchScalarBodies and
// FuzzRowKernel: the twelve built-in row ops as they were written before
// the grouped kernels replaced them, one float64 per group, moved here
// verbatim. The kernels' contract is these bodies' output bit for bit.
var scalarBodies = map[string]RowOp{}

func init() {
	must := func(name string, op RowOp) { scalarBodies[name] = op }
	must("max", func(row []float32, _ []float64) float64 {
		m := math.Inf(-1)
		for _, v := range row {
			if float64(v) > m {
				m = float64(v)
			}
		}
		return m
	})
	must("min", func(row []float32, _ []float64) float64 {
		m := math.Inf(1)
		for _, v := range row {
			if float64(v) < m {
				m = float64(v)
			}
		}
		return m
	})
	must("sum", func(row []float32, _ []float64) float64 {
		var s float64
		for _, v := range row {
			s += float64(v)
		}
		return s
	})
	must("avg", func(row []float32, _ []float64) float64 {
		if len(row) == 0 {
			return math.NaN()
		}
		var s float64
		for _, v := range row {
			s += float64(v)
		}
		return s / float64(len(row))
	})
	must("std", func(row []float32, _ []float64) float64 {
		if len(row) == 0 {
			return math.NaN()
		}
		var s float64
		for _, v := range row {
			s += float64(v)
		}
		mean := s / float64(len(row))
		var ss float64
		for _, v := range row {
			d := float64(v) - mean
			ss += d * d
		}
		return math.Sqrt(ss / float64(len(row)))
	})
	// count_above(threshold): elements strictly above params[0]
	must("count_above", func(row []float32, params []float64) float64 {
		th := param(params, 0, 0)
		n := 0
		for _, v := range row {
			if float64(v) > th {
				n++
			}
		}
		return float64(n)
	})
	must("count_below", func(row []float32, params []float64) float64 {
		th := param(params, 0, 0)
		n := 0
		for _, v := range row {
			if float64(v) < th {
				n++
			}
		}
		return float64(n)
	})
	// longest_run_above(threshold): length of the longest consecutive
	// run of values strictly above the threshold — the heat-wave
	// duration primitive.
	must("longest_run_above", func(row []float32, params []float64) float64 {
		th := param(params, 0, 0)
		best, cur := 0, 0
		for _, v := range row {
			if float64(v) > th {
				cur++
				if cur > best {
					best = cur
				}
			} else {
				cur = 0
			}
		}
		return float64(best)
	})
	must("longest_run_below", func(row []float32, params []float64) float64 {
		th := param(params, 0, 0)
		best, cur := 0, 0
		for _, v := range row {
			if float64(v) < th {
				cur++
				if cur > best {
					best = cur
				}
			} else {
				cur = 0
			}
		}
		return float64(best)
	})
	// count_runs_above(threshold, minLen): number of maximal runs above
	// the threshold lasting at least minLen — the wave-count primitive.
	must("count_runs_above", func(row []float32, params []float64) float64 {
		th := param(params, 0, 0)
		minLen := int(param(params, 1, 1))
		n, cur := 0, 0
		for _, v := range row {
			if float64(v) > th {
				cur++
			} else {
				if cur >= minLen {
					n++
				}
				cur = 0
			}
		}
		if cur >= minLen {
			n++
		}
		return float64(n)
	})
	must("count_runs_below", func(row []float32, params []float64) float64 {
		th := param(params, 0, 0)
		minLen := int(param(params, 1, 1))
		n, cur := 0, 0
		for _, v := range row {
			if float64(v) < th {
				cur++
			} else {
				if cur >= minLen {
					n++
				}
				cur = 0
			}
		}
		if cur >= minLen {
			n++
		}
		return float64(n)
	})
	// quantile(q): linear-interpolated q-quantile of the row.
	must("quantile", func(row []float32, params []float64) float64 {
		if len(row) == 0 {
			return math.NaN()
		}
		q := param(params, 0, 0.5)
		sorted := make([]float64, len(row))
		for i, v := range row {
			sorted[i] = float64(v)
		}
		sort.Float64s(sorted)
		pos := q * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			return sorted[lo]
		}
		frac := pos - float64(lo)
		return sorted[lo]*(1-frac) + sorted[hi]*frac
	})
}

// specialValues are what a kernel must treat exactly as the scalar
// bodies did: NaN of both signs, both infinities, both zeros, denormals
// and the finite extremes.
var specialValues = []float32{
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000), // ±NaN
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x80000000), 0, // −0 before +0 …
	0, math.Float32frombits(0x80000000), // … and +0 before −0
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // largest denormals
	math.MaxFloat32, -math.MaxFloat32,
}

// laced is a deterministic weather-like value in which about one
// element in six is a special value; the equivalence sweeps of this
// package build their cubes from it.
func laced(row, t int) float32 {
	h := uint32(row*7919+t*104729) * 2654435761
	if h%6 == 0 {
		return specialValues[(h>>8)%uint32(len(specialValues))]
	}
	return float32(int32(h>>10)%4000)/100 - 7.5
}

// sameBits64 compares by bit pattern, except that any NaN equals any
// NaN: when an addition meets two different NaNs (sum, avg, std and
// quantile can), x86 returns whichever the register allocator made the
// first operand, so sign and payload of a NaN result belong to no
// contract. max, min and the counting ops never return NaN.
func sameBits64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

func sameBits32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

// requireKernelMatches runs op's kernel at both output widths over src
// and compares every group with the scalar body by bit pattern.
func requireKernelMatches(t testing.TB, op string, params []float64, src []float32, group int) {
	t.Helper()
	ngroups := 1
	if group > 0 {
		ngroups = len(src) / group
	}
	k32, ok32 := bindRowKernel[float32](op, params)
	k64, ok64 := bindRowKernel[float64](op, params)
	if !ok32 || !ok64 {
		t.Fatalf("%s: no kernel", op)
	}
	got32, got64 := make([]float32, ngroups), make([]float64, ngroups)
	k32(got32, src, group)
	k64(got64, src, group)
	for g := 0; g < ngroups; g++ {
		grp := src[g*group : (g+1)*group]
		want := scalarBodies[op](grp, params)
		if !sameBits64(got64[g], want) {
			t.Fatalf("%s%v group=%d #%d %v: float64 kernel %v (%016x), scalar body %v (%016x)",
				op, params, group, g, grp, got64[g], math.Float64bits(got64[g]), want, math.Float64bits(want))
		}
		if w32 := float32(want); !sameBits32(got32[g], w32) {
			t.Fatalf("%s%v group=%d #%d %v: float32 kernel %v (%08x), scalar body %v (%08x)",
				op, params, group, g, grp, got32[g], math.Float32bits(got32[g]), w32, math.Float32bits(w32))
		}
	}
}

// kernelParams lists parameter sets worth trying for op on row: for the
// threshold ops, thresholds at a value of the row, one float32 ulp to
// either side and a float64 strictly between two float32 neighbours.
func kernelParams(op string, row []float32) [][]float64 {
	switch op {
	case "max", "min", "sum", "avg", "std":
		return [][]float64{nil}
	case "quantile":
		return [][]float64{nil, {0}, {0.25}, {0.5}, {0.9}, {1}}
	}
	ths := []float64{0, math.Copysign(0, -1), 5, math.NaN(), math.Inf(1), math.Inf(-1),
		1e300, -1e300, 1e-50, -1e-50, math.MaxFloat32, -math.MaxFloat32}
	for _, i := range []int{0, len(row) / 3, len(row) - 1} {
		v := row[i]
		up := math.Nextafter32(v, float32(math.Inf(1)))
		down := math.Nextafter32(v, float32(math.Inf(-1)))
		ths = append(ths, float64(v), float64(up), float64(down),
			(float64(v)+float64(up))/2, (float64(v)+float64(down))/2)
	}
	var out [][]float64
	for i, th := range ths {
		if op == "count_runs_above" || op == "count_runs_below" {
			out = append(out, []float64{th, float64([]int{1, 2, 6, 0, -1, 400}[i%6])})
		} else {
			out = append(out, []float64{th})
		}
	}
	return append(out, nil)
}

func TestRowKernelsMatchScalarBodies(t *testing.T) {
	const rowLen = 1260 // divisible by every group length below
	groups := []int{1, 2, 3, 4, 7, 90, rowLen}
	rows := [][]float32{make([]float32, rowLen), make([]float32, rowLen), make([]float32, rowLen)}
	for i := range rows[0] {
		rows[0][i] = laced(1, i)
		rows[1][i] = specialValues[(i/3+i*i)%len(specialValues)] // specials only: all-NaN and all-zero groups
		rows[2][i] = float32(i%11) - 5                           // ties, no specials
	}
	for i := 0; i < 14; i++ {
		rows[0][90+i] = specialValues[i%2] // an all-NaN stretch spanning whole small groups
	}
	if len(scalarBodies) != 12 {
		t.Fatalf("%d scalar bodies, want 12", len(scalarBodies))
	}
	for op := range scalarBodies {
		for _, row := range rows {
			for _, params := range kernelParams(op, row) {
				for _, group := range groups {
					requireKernelMatches(t, op, params, row, group)
				}
				requireKernelMatches(t, op, params, nil, 0) // one empty group
			}
		}
	}
}

// TestLookupRowOpIsKernelView pins what external callers of a built-in
// see: the one-group view answers exactly like the scalar body did.
func TestLookupRowOpIsKernelView(t *testing.T) {
	row := make([]float32, 45)
	for i := range row {
		row[i] = laced(3, i)
	}
	for name, body := range scalarBodies {
		view, ok := LookupRowOp(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		for _, params := range kernelParams(name, row) {
			if got, want := view(row, params), body(row, params); !sameBits64(got, want) {
				t.Fatalf("%s%v: view %v, scalar body %v", name, params, got, want)
			}
		}
	}
}

// TestRegisteredRowOpRunsPerGroup covers the adapter that ops installed
// through RegisterRowOp run behind.
func TestRegisteredRowOpRunsPerGroup(t *testing.T) {
	if err := RegisterRowOp("test_first_plus", func(row []float32, p []float64) float64 {
		return float64(row[0]) + p[0]
	}); err != nil {
		t.Fatal(err)
	}
	kern, ok := bindRowKernel[float32]("test_first_plus", []float64{0.5})
	if !ok {
		t.Fatal("registered op has no kernel")
	}
	dst := make([]float32, 3)
	kern(dst, []float32{1, 9, 2, 9, 3, 9}, 2)
	if dst[0] != 1.5 || dst[1] != 2.5 || dst[2] != 3.5 {
		t.Fatalf("adapter output %v", dst)
	}
	if _, ok := bindRowKernel[float64]("no_such_op", nil); ok {
		t.Fatal("unknown op bound")
	}
}

// FuzzRowKernel decodes fuzzer bytes into a row of arbitrary bit
// patterns, an op, a group length and parameters, and holds the kernel
// to the scalar body.
func FuzzRowKernel(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0xff, 0, 0, 0, 0x80, 0, 0, 0, 0}, uint8(0), uint8(2), 0.0, 1.0)
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0, 0, 1, 0, 0, 0}, uint8(1), uint8(3), 0.0, 0.0)
	f.Add([]byte{0, 0, 0xa0, 0x40, 1, 0, 0xa0, 0x40, 0xff, 0xff, 0x9f, 0x40}, uint8(9), uint8(1), 5.000000000000001, 2.0)
	f.Add([]byte{0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0x3f}, uint8(11), uint8(2), 0.3, 0.0)
	names := make([]string, 0, len(scalarBodies))
	for name := range scalarBodies {
		names = append(names, name)
	}
	sort.Strings(names)
	f.Fuzz(func(t *testing.T, raw []byte, opSel, groupSel uint8, p0, p1 float64) {
		op := names[int(opSel)%len(names)]
		src := make([]float32, len(raw)/4)
		for i := range src {
			src[i] = math.Float32frombits(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
		}
		group := 0
		if len(src) > 0 {
			group = 1 + int(groupSel)%len(src)
			src = src[:len(src)/group*group]
		}
		if op == "quantile" && !(p0 >= 0 && p0 <= 1) {
			p0 = 0.5 // outside [0,1] both sides index out of range
		}
		requireKernelMatches(t, op, []float64{p0, p1}, src, group)
	})
}

// benchRow is one row of the repository benchmark's temperature field:
// a seasonal cycle plus weather that persists across the four steps of
// a day, so maxima are a coin flip per element.
func benchRow(rng *rand.Rand, steps int) []float32 {
	row := make([]float32, steps)
	weather := 0.0
	for t := range row {
		if t%4 == 0 {
			weather = 0.8*weather + 4*rng.NormFloat64()
		}
		season := 8 * math.Sin(2*math.Pi*float64(t)/float64(steps))
		row[t] = float32(280 + season + weather + 0.5*rng.NormFloat64())
	}
	return row
}

func BenchmarkRowKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	src := benchRow(rng, 360*64)
	params := map[string][]float64{"quantile": {0.9}}
	for _, op := range RowOpNames() {
		if _, builtin := scalarBodies[op]; !builtin {
			continue
		}
		p, ok := params[op]
		if !ok {
			p = []float64{285, 3}
		}
		kern, _ := bindRowKernel[float32](op, p)
		for _, group := range []int{4, 90, 360} {
			dst := make([]float32, len(src)/group)
			b.Run(fmt.Sprintf("%s/group=%d", op, group), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kern(dst, src, group)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(src)), "ns/element")
			})
		}
	}
}
