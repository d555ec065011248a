package datacube

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file compiles and executes fused passes for plan.go. One fused
// pass runs a chain of row-local stages over every fragment in a single
// fan-out: per row, intermediates live in pooled scratch buffers
// (float32, so rounding matches the eager materialized path bit for
// bit) and only the final stage writes to an allocated output cube.

// stage is one compiled row-local operator of a fused pass.
type stage struct {
	desc    string // eager-style provenance fragment
	inLen   int    // expected per-row input width
	outLen  int    // per-row output width
	scratch int    // extra scratch floats (reducestride transpose)
	work    int    // cells accounted per row (parity with the eager op)
	run     func(dst, src, ext []float32, row int)
}

// rowLocalOp reports whether op preserves row identity (output row r
// depends only on input row r) and can therefore join a fused pass.
func rowLocalOp(op string) bool {
	switch op {
	case "apply", "reduce", "reducegroup", "reducestride", "subset", "intercube":
		return true
	}
	return false
}

// intercubeFunc resolves the elementwise arithmetic of oph_intercube to
// one loop per op over whole rows; shared by the eager operator, the
// fused compiler and the tolerant pass. a and b are at least len(dst)
// long.
func intercubeFunc(op string) (func(dst, a, b []float32), error) {
	switch op {
	case "add":
		return func(dst, a, b []float32) {
			for t := range dst {
				dst[t] = a[t] + b[t]
			}
		}, nil
	case "sub":
		return func(dst, a, b []float32) {
			for t := range dst {
				dst[t] = a[t] - b[t]
			}
		}, nil
	case "mul":
		return func(dst, a, b []float32) {
			for t := range dst {
				dst[t] = a[t] * b[t]
			}
		}, nil
	case "div":
		return func(dst, a, b []float32) {
			for t := range dst {
				dst[t] = a[t] / b[t]
			}
		}, nil
	}
	return nil, fmt.Errorf("datacube: unknown intercube op %q", op)
}

// compileStage validates one row-local step against the incoming shape
// (rows × inLen) and returns its kernel. Validation messages match the
// eager operators' so callers see identical errors on either path.
func compileStage(st planStep, rows, inLen int) (stage, error) {
	switch st.op {
	case "apply":
		expr, err := compileCached(st.expr)
		if err != nil {
			return stage{}, err
		}
		return stage{
			desc:  "apply(" + st.expr + ")",
			inLen: inLen, outLen: inLen, work: inLen,
			run: func(dst, src, _ []float32, _ int) {
				for t, v := range src {
					dst[t] = float32(expr.Eval(float64(v)))
				}
			},
		}, nil
	case "reduce", "reducegroup":
		group := st.group
		if st.op == "reduce" {
			group = inLen
		}
		kern, ok := bindRowKernel[float32](st.rowOp, st.params)
		if !ok {
			return stage{}, fmt.Errorf("datacube: unknown row op %q (have %v)", st.rowOp, RowOpNames())
		}
		if group <= 0 || inLen%group != 0 {
			return stage{}, fmt.Errorf("datacube: group %d does not divide implicit length %d", group, inLen)
		}
		return stage{
			desc:  "reduce(" + st.rowOp + ",group=" + strconv.Itoa(group) + ")",
			inLen: inLen, outLen: inLen / group, work: inLen,
			run: func(dst, src, _ []float32, _ int) { kern(dst, src, group) },
		}, nil
	case "reducestride":
		stride := st.group
		kern, ok := bindRowKernel[float32](st.rowOp, st.params)
		if !ok {
			return stage{}, fmt.Errorf("datacube: unknown row op %q (have %v)", st.rowOp, RowOpNames())
		}
		if stride <= 0 || inLen%stride != 0 {
			return stage{}, fmt.Errorf("datacube: stride %d does not divide implicit length %d", stride, inLen)
		}
		groups := inLen / stride
		return stage{
			desc:  "reducestride(" + st.rowOp + "," + strconv.Itoa(stride) + ")",
			inLen: inLen, outLen: stride, scratch: inLen, work: inLen,
			run: func(dst, src, ext []float32, _ int) {
				transposeStride(ext[:inLen], src, stride)
				kern(dst, ext[:inLen], groups)
			},
		}, nil
	case "subset":
		if st.lo < 0 || st.hi > inLen || st.lo >= st.hi {
			return stage{}, fmt.Errorf("datacube: subset [%d,%d) out of range [0,%d)", st.lo, st.hi, inLen)
		}
		lo, n := st.lo, st.hi-st.lo
		return stage{
			desc:  "subset[" + strconv.Itoa(st.lo) + ":" + strconv.Itoa(st.hi) + "]",
			inLen: inLen, outLen: n, work: n,
			run: func(dst, src, _ []float32, _ int) {
				copy(dst, src[lo:lo+n])
			},
		}, nil
	case "intercube":
		other := st.other
		if other == nil {
			return stage{}, fmt.Errorf("datacube: intercube needs a second operand cube")
		}
		if rows != other.rows || inLen != other.implicit.Size {
			return stage{}, fmt.Errorf("datacube: shape mismatch: %dx%d vs %dx%d",
				rows, inLen, other.rows, other.implicit.Size)
		}
		f, err := intercubeFunc(st.rowOp)
		if err != nil {
			return stage{}, err
		}
		return stage{
			desc:  "intercube(" + st.rowOp + ")",
			inLen: inLen, outLen: inLen, work: inLen,
			run: func(dst, src, _ []float32, row int) { f(dst, src, other.rowSlice(row)) },
		}, nil
	}
	return stage{}, fmt.Errorf("datacube: operator %q cannot run in a fused pass", st.op)
}

// planExec is the mutable state of one Plan.run. A struct with methods
// (rather than closures over shared locals) keeps plan execution to one
// bookkeeping allocation — closure captures of reassigned variables
// would box each of them separately on the hot path.
type planExec struct {
	e       *Engine
	cur     *Cube
	curTemp bool
	temps   []*Cube
	pending []stage
	// pendingSteps mirrors pending with the raw recorded steps so a
	// terminal flush under Plan.Tolerance can compile interval kernels
	// (tolerance.go) for the same segment.
	pendingSteps []planStep
	inLen        int
}

// fail deletes every unkept intermediate and returns err.
func (x *planExec) fail(err error) ([]*Cube, error) {
	if x.curTemp {
		_ = x.cur.Delete()
	}
	x.deleteTemps()
	return nil, err
}

func (x *planExec) deleteTemps() {
	for _, c := range x.temps {
		_ = c.Delete()
	}
}

// shift makes next the chain value; the previous value, if it was an
// unkept intermediate, is deleted once the plan finishes.
func (x *planExec) shift(next *Cube, nextTemp bool) {
	if x.curTemp {
		x.temps = append(x.temps, x.cur)
	}
	x.cur, x.curTemp = next, nextTemp
}

// flush materializes the pending fused segment into a cube. eps > 0
// marks a terminal flush executing under Plan.Tolerance: the segment
// runs coarse-first over the source's resolution pyramid when every
// stage has an interval form, and exact otherwise.
func (x *planExec) flush(keep bool, eps float64) error {
	var outs []*Cube
	var err error
	if eps > 0 {
		var ran bool
		outs, ran, err = x.e.tolerantPass(x.cur, x.pendingSteps, x.pending, nil, nil, eps)
		if err != nil {
			return err
		}
		if !ran {
			outs, err = x.e.fusedPass(x.cur, x.pending, nil)
		}
	} else {
		outs, err = x.e.fusedPass(x.cur, x.pending, nil)
	}
	if err != nil {
		return err
	}
	x.shift(outs[0], !keep)
	x.pending = x.pending[:0]
	x.pendingSteps = x.pendingSteps[:0]
	return nil
}

// run walks the recorded steps, fusing maximal row-local segments and
// materializing at Keep boundaries and barrier operators. With
// branches, the remaining pending segment becomes the shared prefix of
// one multi-output pass.
func (p *Plan) run(branches []*Plan) ([]*Cube, error) {
	if p.executed {
		return nil, ErrPlanReused
	}
	p.executed = true
	if p.src == nil {
		return nil, fmt.Errorf("datacube: plan has no source cube (Branch chains only run under ExecuteBranches)")
	}
	if len(p.steps) == 0 && branches == nil {
		return nil, fmt.Errorf("datacube: empty plan")
	}
	x := &planExec{
		e:            p.src.engine,
		cur:          p.src,
		pending:      make([]stage, 0, len(p.steps)),
		pendingSteps: make([]planStep, 0, len(p.steps)),
		inLen:        p.src.implicit.Size,
	}

	for i, st := range p.steps {
		if rowLocalOp(st.op) {
			sg, err := compileStage(st, x.cur.rows, x.inLen)
			if err != nil {
				return x.fail(fmt.Errorf("datacube: plan step %d (%s): %w", i, st.op, err))
			}
			x.pending = append(x.pending, sg)
			x.pendingSteps = append(x.pendingSteps, st)
			x.inLen = sg.outLen
			if st.keep {
				// only a Keep on the very last step is a terminal flush
				// eligible for coarse-first execution
				eps := 0.0
				if i == len(p.steps)-1 && branches == nil {
					eps = p.tolerance
				}
				if err := x.flush(true, eps); err != nil {
					return x.fail(fmt.Errorf("datacube: plan step %d (%s): %w", i, st.op, err))
				}
			}
			continue
		}
		// barrier: materialize the pending segment, then run eagerly
		if len(x.pending) > 0 {
			if err := x.flush(false, 0); err != nil {
				return x.fail(fmt.Errorf("datacube: plan step %d (%s): %w", i, st.op, err))
			}
		}
		var next *Cube
		var err error
		switch st.op {
		case "subsetrows":
			next, err = x.cur.SubsetRows(st.lo, st.hi)
		case "aggrows":
			next, err = x.cur.AggregateRows(st.rowOp, st.params...)
		case "aggtrailing":
			next, err = x.cur.AggregateTrailing(st.rowOp, st.params...)
		default:
			err = fmt.Errorf("datacube: unknown plan op %q", st.op)
		}
		if err != nil {
			return x.fail(fmt.Errorf("datacube: plan step %d (%s): %w", i, st.op, err))
		}
		x.shift(next, !st.keep)
		x.inLen = next.implicit.Size
	}

	if branches == nil {
		if len(x.pending) > 0 {
			if err := x.flush(true, p.tolerance); err != nil {
				return x.fail(err)
			}
		}
		// the chain value is the result: retained even if it was marked
		// temporary (it only got that mark as a candidate intermediate)
		x.curTemp = false
		x.deleteTemps()
		return []*Cube{x.cur}, nil
	}

	// Multi-output pass: compile every branch against the prefix's
	// output shape before executing anything.
	branchStages := make([][]stage, len(branches))
	for bi, b := range branches {
		if b == nil {
			continue // empty branch: identity copy of the prefix output
		}
		if b.src != nil {
			return x.fail(fmt.Errorf("datacube: branch %d has its own source; build branches with Branch()", bi))
		}
		w := x.inLen
		branchStages[bi] = make([]stage, 0, len(b.steps))
		for si, st := range b.steps {
			if !rowLocalOp(st.op) {
				return x.fail(fmt.Errorf("datacube: branch %d step %d (%s): only row-local operators can join a fused branch", bi, si, st.op))
			}
			if st.keep {
				return x.fail(fmt.Errorf("datacube: branch %d step %d (%s): Keep is not supported inside branches", bi, si, st.op))
			}
			sg, err := compileStage(st, x.cur.rows, w)
			if err != nil {
				return x.fail(fmt.Errorf("datacube: branch %d step %d (%s): %w", bi, si, st.op, err))
			}
			branchStages[bi] = append(branchStages[bi], sg)
			w = sg.outLen
		}
	}
	var outs []*Cube
	var err error
	if p.tolerance > 0 {
		var ran bool
		outs, ran, err = x.e.tolerantPass(x.cur, x.pendingSteps, x.pending, branches, branchStages, p.tolerance)
		if err != nil {
			return x.fail(err)
		}
		if !ran {
			outs, err = x.e.fusedPass(x.cur, x.pending, branchStages)
		}
	} else {
		outs, err = x.e.fusedPass(x.cur, x.pending, branchStages)
	}
	if err != nil {
		return x.fail(err)
	}
	if x.curTemp {
		x.curTemp = false
		x.temps = append(x.temps, x.cur)
	}
	x.deleteTemps()
	return outs, nil
}

// scratchBuf wraps the pooled buffer in a pointer-stable box so
// sync.Pool round trips don't allocate a slice header per Put.
type scratchBuf struct{ buf []float32 }

var scratchPool = sync.Pool{New: func() any { return new(scratchBuf) }}

// getScratch returns a pooled buffer of at least n floats.
func (e *Engine) getScratch(n int) *scratchBuf {
	sb := scratchPool.Get().(*scratchBuf)
	if cap(sb.buf) < n {
		sb.buf = make([]float32, n)
		e.met.scratchMisses.Inc()
	} else {
		sb.buf = sb.buf[:n]
		e.met.scratchHits.Inc()
	}
	return sb
}

func (e *Engine) putScratch(sb *scratchBuf) { scratchPool.Put(sb) }

// runChain streams one row through a compiled stage chain: input → A →
// B → A → … → dst. input must not alias the ping-pong buffers.
func runChain(chain []stage, input, dst, bufA, bufB, ext []float32, row int) {
	cur := input
	last := len(chain) - 1
	for si := range chain {
		sg := &chain[si]
		out := dst
		if si != last {
			if si%2 == 0 {
				out = bufA[:sg.outLen]
			} else {
				out = bufB[:sg.outLen]
			}
		}
		sg.run(out, cur, ext, row)
		cur = out
	}
}

// fusedPass executes a prefix stage chain and optional branch chains in
// one sweep over src's fragments. With branches, the prefix runs once
// per row into scratch and every branch writes its own output cube —
// one fan-out, len(branches) output allocations, zero intermediate
// cubes. A nil branches slice means a single linear chain (prefix must
// then be non-empty).
func (e *Engine) fusedPass(src *Cube, prefix []stage, branches [][]stage) ([]*Cube, error) {
	linear := branches == nil
	if linear {
		branches = [][]stage{nil}
	}

	preLen := src.implicit.Size
	for _, sg := range prefix {
		preLen = sg.outLen
	}

	// per-output geometry, provenance and the pass-wide buffer sizing
	nstages := len(prefix)
	maxW, maxExt := src.implicit.Size, 0
	note := func(sgs []stage) {
		for _, sg := range sgs {
			if sg.outLen > maxW {
				maxW = sg.outLen
			}
			if sg.scratch > maxExt {
				maxExt = sg.scratch
			}
		}
	}
	note(prefix)
	outs := make([]*Cube, len(branches))
	descs := make([]string, len(branches))
	workPerRow := 0
	for _, sg := range prefix {
		workPerRow += sg.work
	}
	// Longest stage chain decides how many ping-pong buffers rows need:
	// a chain of n stages has n-1 intermediates (the prefix's last stage
	// writes the dedicated prefix buffer, a branch's last one the output
	// fragment), and intermediates alternate between two buffers.
	maxChain := len(prefix)
	for bi, bs := range branches {
		note(bs)
		nstages += len(bs)
		w := preLen
		nparts := len(bs)
		if linear {
			nparts += len(prefix)
		}
		for _, sg := range bs {
			w = sg.outLen
			workPerRow += sg.work
		}
		if !linear && len(bs) == 0 {
			workPerRow += w // the identity copy still touches the row
		}
		switch {
		case nparts == 0:
			descs[bi] = "fused()"
		case nparts == 1 && linear && len(prefix) == 1:
			descs[bi] = prefix[0].desc
		case nparts == 1:
			descs[bi] = bs[0].desc
		default:
			var sb strings.Builder
			n := len("fused()")
			if linear {
				for _, sg := range prefix {
					n += len(sg.desc) + 1
				}
			}
			for _, sg := range bs {
				n += len(sg.desc) + 1
			}
			sb.Grow(n)
			sb.WriteString("fused(")
			if linear {
				for pi, sg := range prefix {
					if pi > 0 {
						sb.WriteByte('|')
					}
					sb.WriteString(sg.desc)
				}
			}
			for si, sg := range bs {
				if si > 0 || (linear && len(prefix) > 0) {
					sb.WriteByte('|')
				}
				sb.WriteString(sg.desc)
			}
			sb.WriteByte(')')
			descs[bi] = sb.String()
		}
		if n := len(bs); n > maxChain {
			maxChain = n
		}
		outs[bi] = e.newCube(src.explicit, Dimension{Name: src.implicit.Name, Size: w})
		outs[bi].measure = src.measure
	}

	// Ping-pong buffers are only needed for chain intermediates; a
	// single-stage linear pass writes the output directly and borrows
	// nothing from the pool. The prefix of a branched pass needs its own
	// buffer because every branch re-reads its output.
	nbuf := maxChain - 1
	if nbuf > 2 {
		nbuf = 2
	}
	if nbuf < 0 {
		nbuf = 0
	}
	withPrefixBuf := !linear && len(prefix) > 0
	if withPrefixBuf {
		nbuf++
	}
	scratchLen := nbuf*maxW + maxExt

	var sp *obs.Span
	if e.cfg.Tracer != nil { // attrs cost allocations; skip them untraced
		sp = e.cfg.Tracer.Start("datacube.fused_pass",
			obs.Attr{Key: "stages", Value: strconv.Itoa(nstages)},
			obs.Attr{Key: "outputs", Value: strconv.Itoa(len(outs))},
			obs.Attr{Key: "rows", Value: strconv.Itoa(src.rows)})
	}
	t0 := time.Now()
	err := e.mapFragmentsIdx("fused", outs[0], func(fi int, fr *fragment) error {
		var bufA, bufB, bufP, ext []float32
		if scratchLen > 0 {
			sb := e.getScratch(scratchLen)
			defer e.putScratch(sb)
			buf, off := sb.buf, 0
			if withPrefixBuf {
				bufP, off = buf[off:off+maxW], off+maxW
			}
			switch nbuf - btoi(withPrefixBuf) {
			case 1:
				bufA, off = buf[off:off+maxW], off+maxW
			case 2:
				bufA, off = buf[off:off+maxW], off+maxW
				bufB, off = buf[off:off+maxW], off+maxW
			}
			if maxExt > 0 {
				ext = buf[off : off+maxExt]
			}
		}
		for r := 0; r < fr.rowCount; r++ {
			row := fr.rowStart + r
			srow := src.rowSlice(row)
			if linear {
				ow := outs[0].implicit.Size
				dst := fr.data[r*ow : (r+1)*ow]
				runChain(prefix, srow, dst, bufA, bufB, ext, row)
				continue
			}
			base := srow
			if len(prefix) > 0 {
				runChain(prefix, srow, bufP[:preLen], bufA, bufB, ext, row)
				base = bufP[:preLen]
			}
			for bi, bs := range branches {
				ofr := outs[bi].frags[fi]
				ow := outs[bi].implicit.Size
				dst := ofr.data[r*ow : (r+1)*ow]
				if len(bs) == 0 {
					copy(dst, base)
					continue
				}
				runChain(bs, base, dst, bufA, bufB, ext, row)
			}
		}
		e.addCells(int64(fr.rowCount * workPerRow))
		return nil
	})
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	// stage count preserves Ops parity with the eager operator-per-op
	// accounting; the fragment fan-out count is what fusion shrinks
	e.ops.Add(int64(nstages))
	e.met.fusedPasses.Inc()
	e.met.fusedStages.Add(float64(nstages))
	e.met.fusedSeconds.Observe(time.Since(t0).Seconds())
	sp.End()
	for bi := range outs {
		e.register(outs[bi], descs[bi])
	}
	return outs, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
