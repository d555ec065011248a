package datacube

import (
	"fmt"
	"sort"
	"sync"
)

// This file gives AggregateRows a distributed form. A cluster that
// splits a cube's rows across shards cannot run a row-collapsing
// reduction locally — every shard sees only its own rows — but for
// decomposable reductions it does not have to move the rows either:
// each shard computes a small float64 partial per implicit position
// (AggregateRowsPartial) and the coordinator folds the per-shard
// partials with the op's registered merge function. Only the reduced
// partials cross the wire, which is the scatter-gather contract the
// Panta et al. scalable-analysis design calls for.
//
// Partials stay float64 end to end: the shard-local reduction returns
// the row op's raw float64 outputs (before the float32 cube rounding),
// so a single-shard cluster merge is bit-identical to the plain
// AggregateRows result, and multi-shard merges differ from the
// sequential order only by float64 summation association.

// PartialMerge describes how to distribute one named row op across row
// shards for AggregateRows.
type PartialMerge struct {
	// PartialOp names the row op each shard runs locally over its own
	// rows via AggregateRowsPartial; empty means the op itself. avg, for
	// example, ships "sum" partials so the merge can weight by row
	// counts without double rounding.
	PartialOp string
	// Merge folds one implicit position's per-shard partials into the
	// global value. partials[i] aligns with weights[i], the number of
	// rows shard i reduced; params are the op's original parameters.
	Merge func(partials []float64, weights []int, params []float64) float64
}

var (
	rowOpMergesMu sync.RWMutex
	rowOpMerges   = map[string]PartialMerge{}
)

// RegisterRowOpMerge installs the distributed form of a named row op.
// Ops without a registered merge are still correct on a cluster — the
// coordinator falls back to gathering full columns — just not cheap.
func RegisterRowOpMerge(name string, pm PartialMerge) error {
	if pm.Merge == nil {
		return fmt.Errorf("datacube: row op merge %q needs a Merge function", name)
	}
	rowOpMergesMu.Lock()
	defer rowOpMergesMu.Unlock()
	if _, dup := rowOpMerges[name]; dup {
		return fmt.Errorf("datacube: row op merge %q already registered", name)
	}
	rowOpMerges[name] = pm
	return nil
}

// LookupRowOpMerge returns the distributed form of a named row op.
func LookupRowOpMerge(name string) (PartialMerge, bool) {
	rowOpMergesMu.RLock()
	defer rowOpMergesMu.RUnlock()
	pm, ok := rowOpMerges[name]
	return pm, ok
}

// RowOpMergeNames lists row ops with a registered partial merge,
// sorted.
func RowOpMergeNames() []string {
	rowOpMergesMu.RLock()
	defer rowOpMergesMu.RUnlock()
	out := make([]string, 0, len(rowOpMerges))
	for k := range rowOpMerges {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func init() {
	must := func(name string, pm PartialMerge) {
		if err := RegisterRowOpMerge(name, pm); err != nil {
			panic(err)
		}
	}
	sum := func(partials []float64, _ []int, _ []float64) float64 {
		var s float64
		for _, p := range partials {
			s += p
		}
		return s
	}
	must("sum", PartialMerge{Merge: sum})
	// count_above/count_below partials are integer-valued, so their
	// float64 sums are exact at any shard count.
	must("count_above", PartialMerge{Merge: sum})
	must("count_below", PartialMerge{Merge: sum})
	must("max", PartialMerge{Merge: func(partials []float64, _ []int, _ []float64) float64 {
		m := partials[0]
		for _, p := range partials[1:] {
			if p > m {
				m = p
			}
		}
		return m
	}})
	must("min", PartialMerge{Merge: func(partials []float64, _ []int, _ []float64) float64 {
		m := partials[0]
		for _, p := range partials[1:] {
			if p < m {
				m = p
			}
		}
		return m
	}})
	// avg ships per-shard sums and divides by the global row count once,
	// so a single-shard merge reproduces the plain avg bit for bit.
	must("avg", PartialMerge{PartialOp: "sum", Merge: func(partials []float64, weights []int, _ []float64) float64 {
		var s float64
		var n int
		for i, p := range partials {
			s += p
			n += weights[i]
		}
		return s / float64(n)
	}})
}

// AggregateRowsPartial computes the named row op across all of the
// cube's rows at each implicit position — the shard-local half of a
// distributed AggregateRows — and returns the raw float64 results
// without registering a cube. float32(out[t]) equals the value
// AggregateRows would store at position t.
func (c *Cube) AggregateRowsPartial(op string, params ...float64) ([]float64, error) {
	kern, ok := bindRowKernel[float64](op, params)
	if !ok {
		return nil, fmt.Errorf("datacube: unknown row op %q", op)
	}
	e := c.engine
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("aggpartial: %w", ErrEngineClosed)
	}
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()

	n := c.implicit.Size
	out := make([]float64, n)
	sb := e.getScratch(columnScratch(c.rows, n))
	defer e.putScratch(sb)
	reduceColumns(kern, out, c.rows, c.rowSlice, sb.buf)
	e.addCells(int64(c.rows) * int64(n))
	e.ops.Add(1)
	return out, nil
}

// ReduceColumns is AggregateRows over rows already gathered in global
// row order: out[t] is the named op across rows[0][t] … rows[len-1][t].
// A cluster coordinator runs it for ops without a partial merge, so
// that fallback is the engine's own kernel too.
func ReduceColumns(op string, params []float64, rows [][]float32) ([]float32, error) {
	kern, ok := bindRowKernel[float32](op, params)
	if !ok {
		return nil, fmt.Errorf("datacube: unknown row op %q", op)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("datacube: no rows to reduce")
	}
	out := make([]float32, len(rows[0]))
	tb := make([]float32, columnScratch(len(rows), len(out)))
	reduceColumns(kern, out, len(rows), func(r int) []float32 { return rows[r] }, tb)
	return out, nil
}

// MergeRowPartials folds per-shard AggregateRowsPartial outputs into
// the single global row of the distributed AggregateRows. partials[i]
// is shard i's output (all the same length) and weights[i] its row
// count, both in global row order.
func MergeRowPartials(op string, partials [][]float64, weights []int, params []float64) ([]float32, error) {
	pm, ok := LookupRowOpMerge(op)
	if !ok {
		return nil, fmt.Errorf("datacube: row op %q has no partial merge (have %v)", op, RowOpMergeNames())
	}
	if len(partials) == 0 || len(partials) != len(weights) {
		return nil, fmt.Errorf("datacube: merge needs aligned partials and weights, got %d/%d", len(partials), len(weights))
	}
	n := len(partials[0])
	for i, p := range partials {
		if len(p) != n {
			return nil, fmt.Errorf("datacube: partial %d has %d positions, want %d", i, len(p), n)
		}
	}
	buf := make([]float64, len(partials))
	out := make([]float32, n)
	for t := 0; t < n; t++ {
		for s := range partials {
			buf[s] = partials[s][t]
		}
		out[t] = float32(pm.Merge(buf, weights, params))
	}
	return out, nil
}
