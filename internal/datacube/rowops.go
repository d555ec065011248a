package datacube

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// RowOp reduces one row's array (typically a time series) to a single
// value. Named row operations keep reductions serializable across the
// client/server boundary, like Ophidia's fixed operator set.
type RowOp func(row []float32, params []float64) float64

// rowKernel is the executable form of a row op with its parameters
// bound: it reduces every consecutive group of `group` values of src to
// one element of dst (len(dst)·group == len(src)), all groups of a row
// in one call. D is float32 for cube cells and float64 for the raw
// partials of a distributed aggregation. Every operator that runs a row
// op — fused, eager, tolerant, aggregating — binds this one body per
// stage; DESIGN.md §9 tabulates each op's NaN, empty-group, tie and
// rounding contract.
type rowKernel[D float32 | float64] func(dst []D, src []float32, group int)

var (
	rowOpsMu sync.RWMutex
	rowOps   = map[string]RowOp{}
)

// RegisterRowOp installs a named reduction. Built-ins cover the
// operations the workflow needs; domain packages may add more.
func RegisterRowOp(name string, op RowOp) error {
	rowOpsMu.Lock()
	defer rowOpsMu.Unlock()
	if _, dup := rowOps[name]; dup {
		return fmt.Errorf("datacube: row op %q already registered", name)
	}
	rowOps[name] = op
	return nil
}

// LookupRowOp returns the named reduction; for a built-in that is a
// one-group view of its kernel, which binds the kernel anew on every
// call (parameters digested, two allocations). That is right for
// a value here and there; to reduce many groups or columns go through
// Plan, Cube.ReduceGroup or ReduceColumns, which bind once.
func LookupRowOp(name string) (RowOp, bool) {
	rowOpsMu.RLock()
	defer rowOpsMu.RUnlock()
	op, ok := rowOps[name]
	return op, ok
}

// RowOpNames lists registered reductions, sorted.
func RowOpNames() []string {
	rowOpsMu.RLock()
	defer rowOpsMu.RUnlock()
	out := make([]string, 0, len(rowOps))
	for k := range rowOps {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func init() {
	for _, name := range []string{"max", "min", "sum", "avg", "std",
		"count_above", "count_below", "longest_run_above", "longest_run_below",
		"count_runs_above", "count_runs_below", "quantile"} {
		err := RegisterRowOp(name, func(row []float32, params []float64) float64 {
			var out [1]float64
			kern, _ := bindRowKernel[float64](name, params)
			kern(out[:], row, len(row))
			return out[0]
		})
		if err != nil {
			panic(err)
		}
	}
}

// bindRowKernel resolves a named row op and its parameters to a kernel,
// once per stage. Ops installed through RegisterRowOp run their scalar
// body once per group.
func bindRowKernel[D float32 | float64](name string, params []float64) (rowKernel[D], bool) {
	switch name {
	case "max":
		return func(dst []D, src []float32, group int) { extremum(dst, src, group, 0) }, true
	case "min":
		return func(dst []D, src []float32, group int) { extremum(dst, src, group, signBit) }, true
	case "sum":
		return func(dst []D, src []float32, group int) { moments(dst, src, group, momentSum) }, true
	case "avg":
		return func(dst []D, src []float32, group int) { moments(dst, src, group, momentAvg) }, true
	case "std":
		return func(dst []D, src []float32, group int) { moments(dst, src, group, momentStd) }, true
	case "count_above", "count_below":
		// count_above(threshold): elements strictly above params[0]
		sgn, t := threshold(name, params)
		return func(dst []D, src []float32, group int) { countOver(dst, src, group, sgn, t) }, true
	case "longest_run_above", "longest_run_below":
		// longest_run_above(threshold): length of the longest consecutive
		// run of values strictly above the threshold — the heat-wave
		// duration primitive.
		sgn, t := threshold(name, params)
		return func(dst []D, src []float32, group int) { longestRun(dst, src, group, sgn, t) }, true
	case "count_runs_above", "count_runs_below":
		// count_runs_above(threshold, minLen): number of maximal runs above
		// the threshold lasting at least minLen — the wave-count primitive.
		sgn, t := threshold(name, params)
		minLen := int(param(params, 1, 1))
		return func(dst []D, src []float32, group int) { countRuns(dst, src, group, sgn, t, minLen) }, true
	case "quantile":
		// quantile(q): linear-interpolated q-quantile of the row.
		q := param(params, 0, 0.5)
		return func(dst []D, src []float32, group int) { quantile(dst, src, group, q) }, true
	}
	op, ok := LookupRowOp(name)
	if !ok {
		return nil, false
	}
	return func(dst []D, src []float32, group int) {
		for g := range dst {
			dst[g] = D(op(src[g*group:(g+1)*group], params))
		}
	}, true
}

// threshold digests params[0] for the threshold ops, which test
// sgn·v > t in float32: "below" is "above" of the negated values against
// the negated threshold.
func threshold(name string, params []float64) (sgn, t float32) {
	th := param(params, 0, 0)
	if strings.HasSuffix(name, "_below") {
		return -1, floorFloat32(-th)
	}
	return 1, floorFloat32(th)
}

// floorFloat32 returns the largest float32 not above x, so that
// v > floorFloat32(x) ⇔ float64(v) > x for every float32 v: kernels
// compare in float32, and a float64 threshold strictly between two
// float32 neighbours still splits them.
func floorFloat32(x float64) float32 {
	t := float32(x)
	if float64(t) > x {
		t = math.Nextafter32(t, float32(math.Inf(-1)))
	}
	return t
}

// orderKey maps float32 bits to an int32 that orders like the float
// (−NaN < −Inf < … < −0 < +0 < … < +Inf < +NaN); it is its own inverse.
func orderKey(bits uint32) int32 {
	k := int32(bits)
	return k ^ (k >> 31 & math.MaxInt32)
}

const (
	keyPosInf = 0x7f800000 // orderKey of +Inf; ^keyPosInf is −Inf's
	signBit   = 1 << 31
)

// extremum is max (sign 0) and min (sign signBit: the max of the negated
// values, negated back): NaN is skipped, an empty or all-NaN group
// yields ∓Inf, and of equal values (−0, +0) the first wins. A float
// compare on weather noise is a coin-flip branch per element, so the
// loop takes an integer max of order keys (a CMOV); the two cases where
// key order and float order part — a +NaN or a zero on top — are rare
// and redone with float compares.
func extremum[D float32 | float64](dst []D, src []float32, group int, sign uint32) {
	for g := range dst {
		grp := src[:group]
		src = src[group:]
		m := int32(^keyPosInf)
		for _, v := range grp {
			m = max(m, orderKey(math.Float32bits(v)^sign))
		}
		if m == 0 || m > keyPosInf {
			f := float32(math.Inf(-1))
			for _, v := range grp {
				if x := math.Float32frombits(math.Float32bits(v) ^ sign); x > f {
					f = x
				}
			}
			m = orderKey(math.Float32bits(f))
		}
		dst[g] = D(math.Float32frombits(uint32(orderKey(uint32(m))) ^ sign))
	}
}

const (
	momentSum = iota
	momentAvg
	momentStd
)

// moments is sum, avg and std: float64 accumulation in element order;
// avg and std of an empty group are NaN.
func moments[D float32 | float64](dst []D, src []float32, group int, which int) {
	for g := range dst {
		grp := src[:group]
		src = src[group:]
		var s float64
		for _, v := range grp {
			s += float64(v)
		}
		switch {
		case which == momentSum:
		case group == 0:
			s = math.NaN()
		case which == momentAvg:
			s /= float64(group)
		default:
			mean := s / float64(group)
			s = 0
			for _, v := range grp {
				d := float64(v) - mean
				s += d * d
			}
			s = math.Sqrt(s / float64(group))
		}
		dst[g] = D(s)
	}
}

// The threshold kernels turn the outcome of sgn·v > t into arithmetic
// instead of a branch: whether a day is above its baseline is not
// predictable.

// countOver is count_above and count_below.
func countOver[D float32 | float64](dst []D, src []float32, group int, sgn, t float32) {
	for g := range dst {
		n := 0
		for _, v := range src[g*group : (g+1)*group] {
			n += btoi(v*sgn > t)
		}
		dst[g] = D(n)
	}
}

// longestRun is longest_run_above and longest_run_below.
func longestRun[D float32 | float64](dst []D, src []float32, group int, sgn, t float32) {
	for g := range dst {
		best, cur := 0, 0
		for _, v := range src[g*group : (g+1)*group] {
			cur = (cur + 1) & -btoi(v*sgn > t)
			best = max(best, cur)
		}
		dst[g] = D(best)
	}
}

// countRuns is count_runs_above and count_runs_below: a run is counted
// where it ends (at the first value outside it, or at the group's end)
// if it lasted at least minLen.
func countRuns[D float32 | float64](dst []D, src []float32, group int, sgn, t float32, minLen int) {
	for g := range dst {
		n, cur := 0, 0
		for _, v := range src[g*group : (g+1)*group] {
			in := btoi(v*sgn > t)
			n += (1 - in) & btoi(cur >= minLen)
			cur = (cur + 1) & -in
		}
		dst[g] = D(n + btoi(cur >= minLen))
	}
}

// quantile sorts each group in one buffer shared by the whole call.
func quantile[D float32 | float64](dst []D, src []float32, group int, q float64) {
	sorted := make([]float64, group)
	for g := range dst {
		if group == 0 {
			dst[g] = D(math.NaN())
			continue
		}
		for i, v := range src[g*group : (g+1)*group] {
			sorted[i] = float64(v)
		}
		sort.Float64s(sorted)
		pos := q * float64(group-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			dst[g] = D(sorted[lo])
			continue
		}
		frac := pos - float64(lo)
		dst[g] = D(sorted[lo]*(1-frac) + sorted[hi]*frac)
	}
}

func param(params []float64, i int, def float64) float64 {
	if i < len(params) {
		return params[i]
	}
	return def
}
