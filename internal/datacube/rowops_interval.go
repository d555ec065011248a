package datacube

import (
	"fmt"
	"math"
	"sync"
)

// RowIvalFunc is the interval form of a RowOp: given per-position lower
// and upper bounds on a row, it returns a sound enclosure of the op's
// value over every row within those bounds. Interval forms let a
// reduction join a tolerance-aware coarse pass (tolerance.go); a row op
// without one forces that pass back to exact execution.
type RowIvalFunc func(lo, hi []float32, params []float64) (float64, float64)

// rowIval is one registry entry. dir marks a built-in op that is its
// own interval form on the corner rows (+1 nondecreasing, −1
// nonincreasing): the tolerant pass bounds those with two kernel calls
// per row instead of one f call per group (compileIReduce).
type rowIval struct {
	f   RowIvalFunc
	dir int
}

var (
	rowIvalsMu sync.RWMutex
	rowIvals   = map[string]rowIval{}
)

// RegisterRowOpInterval installs the interval form of a named row op.
// The form must be sound: for every row r with lo[t] <= r[t] <= hi[t],
// the returned (a, b) must satisfy a <= op(r) <= b.
func RegisterRowOpInterval(name string, f RowIvalFunc) error {
	return registerRowIval(name, rowIval{f: f})
}

func registerRowIval(name string, iv rowIval) error {
	rowIvalsMu.Lock()
	defer rowIvalsMu.Unlock()
	if _, dup := rowIvals[name]; dup {
		return fmt.Errorf("datacube: row op interval %q already registered", name)
	}
	rowIvals[name] = iv
	return nil
}

// LookupRowOpInterval returns the interval form of a named row op.
func LookupRowOpInterval(name string) (RowIvalFunc, bool) {
	iv, ok := lookupRowIval(name)
	return iv.f, ok
}

func lookupRowIval(name string) (rowIval, bool) {
	rowIvalsMu.RLock()
	defer rowIvalsMu.RUnlock()
	iv, ok := rowIvals[name]
	return iv, ok
}

// MonotoneInterval wraps a row op that is nondecreasing in every
// coordinate (max, sum, count_above, ...): its image over a box is
// bracketed by evaluating the corner rows (op(lo), op(hi)). Meant for
// ops installed through RegisterRowOp: over a LookupRowOp view of a
// built-in it pays that view's per-call binding twice per group (the
// tolerant pass bounds built-ins by kernel calls instead).
func MonotoneInterval(op RowOp) RowIvalFunc {
	return func(lo, hi []float32, params []float64) (float64, float64) {
		return op(lo, params), op(hi, params)
	}
}

// AntitoneInterval wraps a row op that is nonincreasing in every
// coordinate (count_below, longest_run_below, ...).
func AntitoneInterval(op RowOp) RowIvalFunc {
	return func(lo, hi []float32, params []float64) (float64, float64) {
		return op(hi, params), op(lo, params)
	}
}

func init() {
	must := func(name string, f RowIvalFunc) {
		if err := RegisterRowOpInterval(name, f); err != nil {
			panic(err)
		}
	}
	corners := func(name string, wrap func(RowOp) RowIvalFunc, dir int) {
		op, ok := LookupRowOp(name)
		if !ok {
			panic("datacube: interval for unregistered row op " + name)
		}
		if err := registerRowIval(name, rowIval{f: wrap(op), dir: dir}); err != nil {
			panic(err)
		}
	}
	mono := func(name string) { corners(name, MonotoneInterval, 1) }
	anti := func(name string) { corners(name, AntitoneInterval, -1) }
	// Nondecreasing in every coordinate: raising any value can only
	// raise the statistic. quantile qualifies because order statistics
	// and their linear interpolation are coordinate-monotone.
	mono("max")
	mono("min")
	mono("sum")
	mono("avg")
	mono("count_above")
	mono("longest_run_above")
	mono("quantile")
	anti("count_below")
	anti("longest_run_below")

	// std is neither monotone nor antitone; bound it through the
	// variance identity var = mean(x^2) - mean(x)^2 with interval
	// arithmetic on both moments.
	must("std", func(lo, hi []float32, _ []float64) (float64, float64) {
		n := len(lo)
		if n == 0 {
			return math.NaN(), math.NaN()
		}
		var sqLo, sqHi, mLo, mHi float64
		for t := range lo {
			l, h := float64(lo[t]), float64(hi[t])
			mLo += l
			mHi += h
			switch {
			case l >= 0:
				sqLo += l * l
				sqHi += h * h
			case h <= 0:
				sqLo += h * h
				sqHi += l * l
			default:
				sqHi += math.Max(l*l, h*h)
			}
		}
		fn := float64(n)
		sqLo, sqHi = sqLo/fn, sqHi/fn // interval of mean(x^2)
		mLo, mHi = mLo/fn, mHi/fn     // interval of mean(x)
		var m2Lo, m2Hi float64        // interval of mean(x)^2
		switch {
		case mLo >= 0:
			m2Lo, m2Hi = mLo*mLo, mHi*mHi
		case mHi <= 0:
			m2Lo, m2Hi = mHi*mHi, mLo*mLo
		default:
			m2Hi = math.Max(mLo*mLo, mHi*mHi)
		}
		vLo := math.Max(0, sqLo-m2Hi)
		vHi := math.Max(0, sqHi-m2Lo)
		return math.Sqrt(vLo), math.Sqrt(vHi)
	})

	// Run counting is not coordinate-monotone (raising a value can merge
	// two qualifying runs into one, lowering the count). Bound it with a
	// certain/possible run analysis: positions certainly above the
	// threshold (lo > th) versus possibly above it (hi > th).
	must("count_runs_above", runCountInterval(func(v float32, th float64) bool { return float64(v) > th }))
	must("count_runs_below", runCountInterval(func(v float32, th float64) bool { return float64(v) < th }))
}

// runCountInterval builds the interval form shared by count_runs_above
// and count_runs_below. qual reports whether one value qualifies; for
// the lower bound it is applied to the pessimistic endpoint (lo for
// "above", hi for "below") and for the upper bound to the optimistic
// one.
//
//   - LOWER: each maximal possible-run containing at least minLen
//     consecutive certain positions must hold one qualifying true run
//     (>= minLen consecutive qualifying values); distinct possible-runs
//     cannot merge, so they count at least once each.
//   - UPPER: a maximal possible-run of length L can be carved into at
//     most floor((L+1)/(minLen+1)) disjoint qualifying runs, since each
//     run needs minLen members plus a separating non-member.
func runCountInterval(qual func(v float32, th float64) bool) RowIvalFunc {
	return func(lo, hi []float32, params []float64) (float64, float64) {
		th := param(params, 0, 0)
		minLen := int(param(params, 1, 1))
		if minLen < 1 {
			minLen = 1
		}
		var lower, upper float64
		possLen, certLen, certSeen := 0, 0, false
		flush := func() {
			if possLen >= minLen {
				upper += math.Floor(float64(possLen+1) / float64(minLen+1))
			}
			if certSeen {
				lower++
			}
			possLen, certLen, certSeen = 0, 0, false
		}
		for t := range lo {
			// "above": possible iff hi > th, certain iff lo > th.
			// "below": possible iff lo < th, certain iff hi < th.
			// qual on the optimistic endpoint decides possible, on the
			// pessimistic endpoint decides certain.
			possible := qual(hi[t], th) || qual(lo[t], th)
			certain := qual(hi[t], th) && qual(lo[t], th)
			if !possible {
				flush()
				continue
			}
			possLen++
			if certain {
				certLen++
				if certLen >= minLen {
					certSeen = true
				}
			} else {
				certLen = 0
			}
		}
		flush()
		return lower, upper
	}
}
