package datacube

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file executes a plan's terminal fused segment coarse-first under
// a declared tolerance (Plan.Tolerance). The pass walks the source
// cube's resolution pyramid top-down: for each coarse block it
// evaluates the stage chain once on the tier's midpoint row while
// propagating a sound interval through every stage (interval.go,
// rowops_interval.go). Blocks whose worst-case error meets the
// tolerance broadcast the midpoint result to all covered output rows;
// the rest split into the next finer tier, bottoming out in exact
// per-row evaluation with the same compiled kernels the exact fused
// pass uses — so eps=0 plans never reach this code and stay
// byte-identical to full fidelity.

// istage is the interval form of one compiled row-local stage: it
// advances the midpoint row and the (lo, hi) bound rows together.
// level/crow identify the pyramid position so intercube stages can read
// the aligned tier of their second operand.
type istage struct {
	outLen  int
	scratch int // extra scratch floats (reducestride transposes 3 rows)
	run     func(dstM, dstLo, dstHi, srcM, srcLo, srcHi, ext []float32, level, crow int)
}

// ierr combines two intervals under an intercube op.
func intercubeIval(op string) func(alo, ahi, blo, bhi float64) (float64, float64) {
	switch op {
	case "add":
		return func(alo, ahi, blo, bhi float64) (float64, float64) { return alo + blo, ahi + bhi }
	case "sub":
		return func(alo, ahi, blo, bhi float64) (float64, float64) { return alo - bhi, ahi - blo }
	case "mul":
		return imul
	case "div":
		return idiv
	}
	return nil
}

// compileIStage builds the interval kernel for one row-local step. ok
// is false when the step has no sound interval form (unknown interval
// row op, misaligned intercube operand, ...): the caller then abandons
// the coarse pass and falls back to exact execution. Shape validation
// already happened when the exact stage compiled.
func compileIStage(st planStep, src *Cube, inLen, levels int) (istage, bool) {
	switch st.op {
	case "apply":
		expr, err := compileCached(st.expr)
		if err != nil {
			return istage{}, false
		}
		return istage{
			outLen: inLen,
			run: func(dstM, dstLo, dstHi, srcM, srcLo, srcHi, _ []float32, _, _ int) {
				for t := range srcM {
					dstM[t] = float32(expr.Eval(float64(srcM[t])))
					lo, hi := expr.EvalInterval(float64(srcLo[t]), float64(srcHi[t]))
					dstLo[t], dstHi[t] = float32(lo), float32(hi)
				}
			},
		}, true
	case "reduce", "reducegroup":
		group := st.group
		if st.op == "reduce" {
			group = inLen
		}
		reduce, ok := compileIReduce(st)
		if !ok {
			return istage{}, false
		}
		return istage{
			outLen: inLen / group,
			run: func(dstM, dstLo, dstHi, srcM, srcLo, srcHi, _ []float32, _, _ int) {
				reduce(dstM, dstLo, dstHi, srcM, srcLo, srcHi, group)
			},
		}, true
	case "reducestride":
		stride := st.group
		reduce, ok := compileIReduce(st)
		if !ok {
			return istage{}, false
		}
		return istage{
			outLen: stride, scratch: 3 * inLen,
			run: func(dstM, dstLo, dstHi, srcM, srcLo, srcHi, ext []float32, _, _ int) {
				tm, tl, th := ext[:inLen], ext[inLen:2*inLen], ext[2*inLen:3*inLen]
				transposeStride(tm, srcM, stride)
				transposeStride(tl, srcLo, stride)
				transposeStride(th, srcHi, stride)
				reduce(dstM, dstLo, dstHi, tm, tl, th, inLen/stride)
			},
		}, true
	case "subset":
		lo, n := st.lo, st.hi-st.lo
		return istage{
			outLen: n,
			run: func(dstM, dstLo, dstHi, srcM, srcLo, srcHi, _ []float32, _, _ int) {
				copy(dstM, srcM[lo:lo+n])
				copy(dstLo, srcLo[lo:lo+n])
				copy(dstHi, srcHi[lo:lo+n])
			},
		}, true
	case "intercube":
		other := st.other
		if other == nil || other.rows != src.rows {
			return istage{}, false
		}
		otiers := other.ensureTiers()
		if len(otiers) < levels {
			return istage{}, false
		}
		f, err := intercubeFunc(st.rowOp)
		if err != nil {
			return istage{}, false
		}
		iv := intercubeIval(st.rowOp)
		if iv == nil {
			return istage{}, false
		}
		return istage{
			outLen: inLen,
			run: func(dstM, dstLo, dstHi, srcM, srcLo, srcHi, _ []float32, level, crow int) {
				ot := &otiers[level-1]
				bm := ot.mean[crow*inLen : (crow+1)*inLen]
				sp := ot.spread[crow]
				f(dstM, srcM, bm)
				for t := range srcM {
					blo, bhi := float64(bm[t]-sp), float64(bm[t]+sp)
					lo, hi := iv(float64(srcLo[t]), float64(srcHi[t]), blo, bhi)
					dstLo[t], dstHi[t] = float32(lo), float32(hi)
				}
			},
		}, true
	}
	return istage{}, false
}

// compileIReduce binds a reduction step's kernel and interval form to
// one function over the (mid, lo, hi) rows. A built-in monotone op is
// its own interval form on the corner rows (rowIval.dir): three kernel
// calls; any other op bounds each group through its registered
// RowIvalFunc.
func compileIReduce(st planStep) (func(dstM, dstLo, dstHi, srcM, srcLo, srcHi []float32, group int), bool) {
	kern, ok := bindRowKernel[float32](st.rowOp, st.params)
	if !ok {
		return nil, false
	}
	iv, ok := lookupRowIval(st.rowOp)
	if !ok {
		return nil, false
	}
	params := st.params
	return func(dstM, dstLo, dstHi, srcM, srcLo, srcHi []float32, group int) {
		kern(dstM, srcM, group)
		switch iv.dir {
		case 1:
			kern(dstLo, srcLo, group)
			kern(dstHi, srcHi, group)
		case -1:
			kern(dstLo, srcHi, group)
			kern(dstHi, srcLo, group)
		default:
			for g := range dstM {
				lo, hi := iv.f(srcLo[g*group:(g+1)*group], srcHi[g*group:(g+1)*group], params)
				dstLo[g], dstHi[g] = float32(lo), float32(hi)
			}
		}
	}, true
}

// compileIChain compiles a run of steps to interval stages, mirroring
// the widths the exact compiler derived.
func compileIChain(steps []planStep, src *Cube, inLen, levels int) ([]istage, int, bool) {
	out := make([]istage, 0, len(steps))
	w := inLen
	for _, st := range steps {
		isg, ok := compileIStage(st, src, w, levels)
		if !ok {
			return nil, 0, false
		}
		out = append(out, isg)
		w = isg.outLen
	}
	return out, w, true
}

// runIChain advances the (mid, lo, hi) triple through a stage chain,
// ping-ponging intermediates between two triple buffers and writing the
// final stage into the dst triple. chain must be non-empty.
func runIChain(chain []istage, sM, sLo, sHi, dM, dLo, dHi []float32, tripA, tripB, ext []float32, level, crow int) {
	cM, cLo, cHi := sM, sLo, sHi
	last := len(chain) - 1
	for si := range chain {
		sg := &chain[si]
		oM, oLo, oHi := dM, dLo, dHi
		if si != last {
			buf := tripA
			if si%2 == 1 {
				buf = tripB
			}
			w := sg.outLen
			oM, oLo, oHi = buf[:w], buf[w:2*w], buf[2*w:3*w]
		}
		sg.run(oM, oLo, oHi, cM, cLo, cHi, ext, level, crow)
		cM, cLo, cHi = oM, oLo, oHi
	}
}

// tolerantPass executes the terminal fused segment coarse-first. It
// mirrors fusedPass's geometry (prefix chain plus optional branch
// chains, one output cube per branch) but partitions work over aligned
// pyramid blocks instead of fragments. ok=false means the pass could
// not run (pyramid disabled or a stage without an interval form) and
// the caller must fall back to the exact fused pass.
func (e *Engine) tolerantPass(src *Cube, prefixSteps []planStep, prefix []stage, branchPlans []*Plan, branchStages [][]stage, eps float64) ([]*Cube, bool, error) {
	tiers := src.ensureTiers()
	if len(tiers) == 0 {
		return nil, false, nil
	}
	levels := len(tiers)
	n := src.implicit.Size

	ipre, preLen, ok := compileIChain(prefixSteps, src, n, levels)
	if !ok {
		return nil, false, nil
	}
	linear := branchStages == nil
	if linear {
		branchStages = [][]stage{nil}
	}
	ibr := make([][]istage, len(branchStages))
	outW := make([]int, len(branchStages))
	for bi := range branchStages {
		var steps []planStep
		if branchPlans != nil && branchPlans[bi] != nil {
			steps = branchPlans[bi].steps
		}
		ch, w, ok := compileIChain(steps, src, preLen, levels)
		if !ok {
			return nil, false, nil
		}
		ibr[bi], outW[bi] = ch, w
	}

	// output cubes and provenance
	outs := make([]*Cube, len(branchStages))
	descs := make([]string, len(branchStages))
	workPerRow := 0
	for _, sg := range prefix {
		workPerRow += sg.work
	}
	maxW, maxExt := n, 0
	note := func(sgs []stage) {
		for _, sg := range sgs {
			if sg.outLen > maxW {
				maxW = sg.outLen
			}
			if 3*sg.scratch > maxExt { // interval path transposes 3 rows
				maxExt = 3 * sg.scratch
			}
		}
	}
	note(prefix)
	totOut := 0
	for bi, bs := range branchStages {
		note(bs)
		for _, sg := range bs {
			workPerRow += sg.work
		}
		if !linear && len(bs) == 0 {
			workPerRow += outW[bi]
		}
		outs[bi] = e.newCube(src.explicit, Dimension{Name: src.implicit.Name, Size: outW[bi]})
		outs[bi].measure = src.measure
		descs[bi] = tolerantDesc(prefix, bs, linear, eps)
		totOut += outW[bi]
	}

	// Scratch layout per task (all float32):
	//   srcLo/srcHi of the coarse row            2n
	//   interval triples: prefix-out, ping, pong 9*maxW
	//   per-branch final mids                    totOut
	//   final lo/hi of the branch being judged   2*maxW
	//   interval transpose scratch               maxExt
	//   exact-path ping-pong + prefix buffer     3*maxW
	//   exact-path transpose scratch             maxExt/3
	scratchLen := 2*n + 9*maxW + totOut + 2*maxW + maxExt + 3*maxW + maxExt/3

	topRows := tiers[levels-1].rows
	ntasks := 2 * e.cfg.Servers
	if ntasks > topRows {
		ntasks = topRows
	}

	var sp *obs.Span
	if e.cfg.Tracer != nil {
		sp = e.cfg.Tracer.Start("datacube.coarse_pass",
			obs.Attr{Key: "eps", Value: strconv.FormatFloat(eps, 'g', -1, 64)},
			obs.Attr{Key: "levels", Value: strconv.Itoa(levels)},
			obs.Attr{Key: "rows", Value: strconv.Itoa(src.rows)})
	}
	t0 := time.Now()
	var accepted, refined, exactRows atomic.Int64
	err := e.runTasks("tolerant", ntasks, func(task int) error {
		b0 := topRows * task / ntasks
		b1 := topRows * (task + 1) / ntasks
		sb := e.getScratch(scratchLen)
		defer e.putScratch(sb)
		buf := sb.buf
		cut := func(k int) []float32 { s := buf[:k]; buf = buf[k:]; return s }
		srcLo, srcHi := cut(n), cut(n)
		tripP, tripA, tripB := cut(3*maxW), cut(3*maxW), cut(3*maxW)
		finals := cut(totOut)
		finLo, finHi := cut(maxW), cut(maxW)
		iext := cut(maxExt)
		exA, exB, exP := cut(maxW), cut(maxW), cut(maxW)
		eext := cut(maxExt / 3)

		var tAccepted, tRefined, tExact, tCells int64

		// exact evaluation of one full-resolution row, identical kernels
		// to the exact fused pass
		exactRow := func(row int) {
			srow := src.rowSlice(row)
			if linear {
				runChain(prefix, srow, outs[0].rowSlice(row), exA, exB, eext, row)
			} else {
				base := srow
				if len(prefix) > 0 {
					runChain(prefix, srow, exP[:preLen], exA, exB, eext, row)
					base = exP[:preLen]
				}
				for bi, bs := range branchStages {
					dst := outs[bi].rowSlice(row)
					if len(bs) == 0 {
						copy(dst, base)
						continue
					}
					runChain(bs, base, dst, exA, exB, eext, row)
				}
			}
			tExact++
			tCells += int64(workPerRow)
		}

		var refine func(level, crow int)
		refine = func(level, crow int) {
			t := &tiers[level-1]
			srcM := t.mean[crow*n : (crow+1)*n]
			spv := t.spread[crow]
			for i, v := range srcM {
				srcLo[i], srcHi[i] = v-spv, v+spv
			}
			// interval evaluation costs roughly three row passes (mid,
			// lo, hi) regardless of acceptance
			tCells += 3 * int64(workPerRow)
			cM, cLo, cHi := srcM, srcLo, srcHi
			if len(ipre) > 0 {
				w := preLen
				pM, pLo, pHi := tripP[:w], tripP[w:2*w], tripP[2*w:3*w]
				runIChain(ipre, cM, cLo, cHi, pM, pLo, pHi, tripA, tripB, iext, level, crow)
				cM, cLo, cHi = pM, pLo, pHi
			}
			worst := 0.0
			off := 0
			for bi, ch := range ibr {
				w := outW[bi]
				fM := finals[off : off+w]
				off += w
				fLo, fHi := finLo[:w], finHi[:w]
				if len(ch) == 0 {
					copy(fM, cM[:w])
					copy(fLo, cLo[:w])
					copy(fHi, cHi[:w])
				} else {
					runIChain(ch, cM, cLo, cHi, fM, fLo, fHi, tripA, tripB, iext, level, crow)
				}
				for i := range fM {
					d := math.Max(float64(fHi[i]-fM[i]), float64(fM[i]-fLo[i]))
					if math.IsNaN(d) {
						d = math.Inf(1)
					}
					if d > worst {
						worst = d
					}
				}
			}
			r0 := crow * t.factor
			r1 := r0 + t.factor
			if r1 > src.rows {
				r1 = src.rows
			}
			if worst <= eps {
				off = 0
				for bi := range outs {
					w := outW[bi]
					fM := finals[off : off+w]
					off += w
					for r := r0; r < r1; r++ {
						copy(outs[bi].rowSlice(r), fM)
					}
				}
				tAccepted++
				return
			}
			tRefined++
			if level == 1 {
				for r := r0; r < r1; r++ {
					exactRow(r)
				}
				return
			}
			fine := &tiers[level-2]
			for child := 2 * crow; child <= 2*crow+1 && child < fine.rows; child++ {
				refine(level-1, child)
			}
		}

		for b := b0; b < b1; b++ {
			refine(levels, b)
		}
		e.addCells(tCells)
		accepted.Add(tAccepted)
		refined.Add(tRefined)
		exactRows.Add(tExact)
		return nil
	})
	if err != nil {
		// outputs were never registered; they drop for GC
		sp.EndErr(err)
		return nil, true, err
	}
	nstages := len(prefix)
	for _, bs := range branchStages {
		nstages += len(bs)
	}
	e.ops.Add(int64(nstages))
	e.met.tolerantPasses.Inc()
	e.met.tierHits.Add(float64(accepted.Load()))
	e.met.tierRefines.Add(float64(refined.Load()))
	e.met.rowsExact.Add(float64(exactRows.Load()))
	e.met.fusedSeconds.Observe(time.Since(t0).Seconds())
	if sp != nil {
		if refined.Load() > 0 {
			rsp := e.cfg.Tracer.Start("datacube.refine",
				obs.Attr{Key: "blocks", Value: strconv.FormatInt(refined.Load(), 10)},
				obs.Attr{Key: "exact_rows", Value: strconv.FormatInt(exactRows.Load(), 10)})
			rsp.End()
		}
		sp.End()
	}
	for bi := range outs {
		e.register(outs[bi], descs[bi])
	}
	return outs, true, nil
}

// tolerantDesc builds the provenance string of a coarse-first output.
func tolerantDesc(prefix, branch []stage, linear bool, eps float64) string {
	s := "tolerant[eps=" + strconv.FormatFloat(eps, 'g', -1, 64) + "]("
	first := true
	if linear || len(branch) == 0 {
		for _, sg := range prefix {
			if !first {
				s += "|"
			}
			s += sg.desc
			first = false
		}
	}
	for _, sg := range branch {
		if !first {
			s += "|"
		}
		s += sg.desc
		first = false
	}
	return s + ")"
}
