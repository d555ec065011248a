package cubecluster

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/cubeserver"
	"repro/internal/datacube"
)

// ErrNoReplicas means every replica of a shard is down — the cluster
// has lost that row range until a Heal succeeds.
var ErrNoReplicas = errors.New("cubecluster: no live replicas for shard")

// ErrPlacementMismatch rejects intercube over operands whose row
// ranges live on different shards; co-sharding is what keeps the
// combine local.
var ErrPlacementMismatch = errors.New("cubecluster: intercube operands are not co-sharded")

// do sends one request to one replica with byte accounting and
// latency/ops instrumentation. A non-nil error is a transport failure.
func (cl *Cluster) do(shard, rep int, req *cubeserver.Request) (*cubeserver.Response, error) {
	label := strconv.Itoa(shard)
	cl.met.scatterOps.With(label).Inc()
	cl.met.scatterB.Add(float64(requestBytes(req)))
	start := time.Now()
	resp, err := cl.shards[shard][rep].tr.Do(req)
	cl.met.observeShard(label, start)
	if err != nil {
		return nil, err
	}
	cl.met.gatherB.Add(float64(responseBytes(resp)))
	return resp, nil
}

// markDown takes a replica out of rotation (transport failure or
// engine-closed response) and flags it stale: it must be resynced by
// Heal before serving again. Replica health flags have their own lock
// (stateMu) because shard fan-out runs parts concurrently under the
// coordinator lock.
func (cl *Cluster) markDown(shard, rep int) {
	cl.stateMu.Lock()
	defer cl.stateMu.Unlock()
	r := cl.shards[shard][rep]
	if !r.down {
		r.down = true
		cl.met.failovers.Inc()
		cl.met.replicaUp.With(strconv.Itoa(shard), strconv.Itoa(rep)).Set(0)
	}
	r.stale = true
}

func (cl *Cluster) isDown(shard, rep int) bool {
	cl.stateMu.Lock()
	defer cl.stateMu.Unlock()
	return cl.shards[shard][rep].down
}

func (cl *Cluster) markStale(shard, rep int) {
	cl.stateMu.Lock()
	defer cl.stateMu.Unlock()
	cl.shards[shard][rep].stale = true
}

// forEachPart fans fn out over [0,n) concurrently — the scatter half
// of scatter-gather. The first error wins; all calls complete either
// way.
func forEachPart(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// readPart serves a read from the part's first live replica, failing
// over to the next on transport errors. A logical error from a healthy
// replica is returned as-is (it is deterministic — every replica would
// refuse identically); an engine-closed response means the replica
// process is effectively dead and triggers failover too.
func (cl *Cluster) readPart(p *part, req *cubeserver.Request) (*cubeserver.Response, error) {
	for rep := range cl.shards[p.shard] {
		if cl.isDown(p.shard, rep) || p.ids[rep] == "" {
			continue
		}
		r := *req
		r.CubeID = p.ids[rep]
		resp, err := cl.do(p.shard, rep, &r)
		if err != nil {
			cl.markDown(p.shard, rep)
			continue
		}
		if resp.ErrCode == cubeserver.CodeEngineClosed {
			cl.markDown(p.shard, rep)
			continue
		}
		if err := cubeserver.ResponseError(resp); err != nil {
			return nil, err
		}
		return resp, nil
	}
	return nil, fmt.Errorf("%w %d", ErrNoReplicas, p.shard)
}

// writeShard applies a cube-creating request to EVERY live replica of
// a shard, so replicas stay bit-identical. mk builds the per-replica
// request (operand cube IDs differ per replica); returning nil marks
// the replica stale for this write (it is missing an operand). The
// first successful response supplies the authoritative shape; per-
// replica result IDs are returned aligned with the replica slice (""
// where the write did not land).
func (cl *Cluster) writeShard(shard int, mk func(rep int) *cubeserver.Request) (cubeserver.Shape, []string, bool, error) {
	reps := cl.shards[shard]
	ids := make([]string, len(reps))
	var shape cubeserver.Shape
	var found, got bool
	var logical error
	alive := false
	for rep := range reps {
		if cl.isDown(shard, rep) {
			continue
		}
		req := mk(rep)
		if req == nil {
			cl.markStale(shard, rep)
			continue
		}
		resp, err := cl.do(shard, rep, req)
		if err != nil {
			cl.markDown(shard, rep)
			continue
		}
		if resp.ErrCode == cubeserver.CodeEngineClosed {
			cl.markDown(shard, rep)
			continue
		}
		alive = true
		if err := cubeserver.ResponseError(resp); err != nil {
			if logical == nil {
				logical = err
			}
			continue
		}
		ids[rep] = resp.Shape.CubeID
		if !got {
			shape, found, got = resp.Shape, resp.Found, true
		}
	}
	if logical != nil {
		return shape, ids, found, logical
	}
	if !alive || !got {
		return shape, ids, found, fmt.Errorf("%w %d", ErrNoReplicas, shard)
	}
	return shape, ids, found, nil
}

// importEntry scatters an importfiles request: every shard imports the
// files server-side and keeps only its contiguous slice of the leading
// explicit dimension, so placement is decided once by arithmetic, not
// by a data shuffle. Rowless variables land whole on shard 0.
func (cl *Cluster) importEntry(req *cubeserver.Request) (*entry, error) {
	type impRes struct {
		shape cubeserver.Shape
		ids   []string
		found bool
	}
	res := make([]impRes, len(cl.shards))
	err := forEachPart(len(cl.shards), func(s int) error {
		shape, ids, foundHere, err := cl.writeShard(s, func(int) *cubeserver.Request {
			return &cubeserver.Request{
				Op: "importshard", Paths: req.Paths, Var: req.Var,
				ImplicitDim: req.ImplicitDim, Shard: s, Shards: len(cl.shards),
			}
		})
		if err != nil {
			return err
		}
		res[s] = impRes{shape: shape, ids: ids, found: foundHere}
		return nil
	})
	e := &entry{}
	if err != nil {
		for s := range res {
			if res[s].found {
				e.parts = append(e.parts, part{shard: s, ids: res[s].ids})
			}
		}
		cl.dropParts(e.parts)
		return nil, err
	}
	cum := 0
	for s := range res {
		if !res[s].found {
			continue
		}
		shape := res[s].shape
		localLead := 1
		if len(shape.ExplicitDims) > 0 {
			localLead = shape.ExplicitDims[0].Size
		}
		e.parts = append(e.parts, part{
			shard: s, leadLo: cum, leadHi: cum + localLead, rows: shape.Rows, ids: res[s].ids,
		})
		cum += localLead
		e.measure = shape.Measure
		e.implicit = datacube.Dimension{Name: shape.ImplicitName, Size: shape.ImplicitLen}
		if e.explicit == nil {
			e.explicit = append([]datacube.Dimension(nil), shape.ExplicitDims...)
		}
	}
	if len(e.parts) == 0 {
		return nil, fmt.Errorf("cubecluster: import produced no parts")
	}
	if len(e.explicit) > 0 {
		e.explicit[0].Size = cum
	}
	return cl.register(e), nil
}

// forwardable reports whether a pipeline op is row-local under
// leading-dimension sharding and can run inside a per-shard fused
// segment. aggtrailing qualifies because trailing-dimension groups
// never straddle a leading-dimension split.
func forwardable(op string) bool {
	switch op {
	case "apply", "reduce", "reducegroup", "reducestride", "subset", "intercube", "aggtrailing":
		return true
	}
	return false
}

// runSteps executes a pipeline against the cluster: row-local runs are
// batched into one fused per-shard pipeline request per segment, and
// the barriers between them (aggrows, subsetrows) execute at the
// coordinator moving only reduced partials or range bounds. Unkept
// intermediate entries are deleted before returning, success or not.
func (cl *Cluster) runSteps(srcID string, steps []cubeserver.PipelineStep) (*entry, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("cubeserver: empty pipeline")
	}
	cur, err := cl.getEntry(srcID)
	if err != nil {
		return nil, err
	}
	// A tolerance on the overall final step may only reach the shards
	// when that step ends a fused segment: each shard refines coarse
	// tier blocks relative to ITS cube's row 0, so the cluster result
	// matches the single-engine result exactly when every part's global
	// row offset sits on a coarsest-tier block boundary (checked against
	// the entry the terminal segment runs on, below). Otherwise the
	// tolerance is stripped and the pipeline runs exact — correct,
	// merely without the coarse-first savings.
	finalTol := 0.0
	if last := steps[len(steps)-1]; forwardable(last.Op) {
		finalTol = last.Tolerance
	}
	var temps []*entry
	cleanup := func(keep *entry) {
		for _, t := range temps {
			if t != keep {
				cl.dropParts(t.parts)
			}
		}
	}

	advance := func(next *entry, kept bool) {
		if kept {
			cl.register(next)
		} else {
			temps = append(temps, next)
		}
		cur = next
	}

	var batch []cubeserver.PipelineStep
	flush := func(kept bool) error {
		if len(batch) == 0 {
			return nil
		}
		next, err := cl.flushBatch(cur, batch)
		batch = nil
		if err != nil {
			return err
		}
		advance(next, kept)
		return nil
	}

	for i, st := range steps {
		last := i == len(steps)-1
		keepHere := st.Keep && !last
		switch {
		case forwardable(st.Op):
			if st.Op == "intercube" {
				other, err := cl.getEntry(st.OtherID)
				if err != nil {
					cleanup(nil)
					return nil, fmt.Errorf("pipeline step %d (intercube): %w", i, err)
				}
				if !samePlacement(cur, other) {
					cleanup(nil)
					return nil, fmt.Errorf("pipeline step %d: %w (%s vs %s)", i, ErrPlacementMismatch, cur.id, other.id)
				}
			}
			fwd := st
			fwd.Keep = false
			fwd.Tolerance = 0 // re-applied on the terminal segment when aligned
			batch = append(batch, fwd)
			if keepHere {
				if err := flush(true); err != nil {
					cleanup(nil)
					return nil, err
				}
			}
		case st.Op == "subsetrows":
			if err := flush(false); err != nil {
				cleanup(nil)
				return nil, err
			}
			next, err := cl.subsetRowsEntry(cur, st.Lo, st.Hi)
			if err != nil {
				cleanup(nil)
				return nil, fmt.Errorf("pipeline step %d: %w", i, err)
			}
			advance(next, keepHere)
		case st.Op == "aggrows":
			if err := flush(false); err != nil {
				cleanup(nil)
				return nil, err
			}
			next, err := cl.aggRowsEntry(cur, st.RowOp, st.Params)
			if err != nil {
				cleanup(nil)
				return nil, fmt.Errorf("pipeline step %d: %w", i, err)
			}
			advance(next, keepHere)
		default:
			cleanup(nil)
			return nil, fmt.Errorf("pipeline step %d: %w %q", i, cubeserver.ErrUnknownOp, st.Op)
		}
	}
	if finalTol > 0 && len(batch) > 0 && cl.tolerancePartsAligned(cur) {
		batch[len(batch)-1].Tolerance = finalTol
	}
	if err := flush(false); err != nil {
		cleanup(nil)
		return nil, err
	}
	if cur == cl.cat[srcID] {
		// Pure-Keep pipelines can end on the source; nothing new to return
		// is a caller bug upstream, but guard against aliasing the source
		// as a temp.
		cleanup(cur)
		return cur, nil
	}
	cleanup(cur)
	if cl.cat[cur.id] == nil {
		cl.register(cur)
	}
	return cur, nil
}

// flushBatch runs one fused segment on every part: each shard executes
// the whole row-local step chain server-side in a single request per
// replica. Leading ranges are invariant under row-local ops, so parts
// keep their placement; rows and the implicit axis come back in the
// shape.
func (cl *Cluster) flushBatch(cur *entry, batch []cubeserver.PipelineStep) (*entry, error) {
	next := &entry{measure: cur.measure, implicit: cur.implicit}
	shapes := make([]cubeserver.Shape, len(cur.parts))
	newParts := make([]part, len(cur.parts))
	err := forEachPart(len(cur.parts), func(i int) error {
		p := &cur.parts[i]
		shape, ids, _, err := cl.writeShard(p.shard, func(rep int) *cubeserver.Request {
			if p.ids[rep] == "" {
				return nil
			}
			steps := make([]cubeserver.PipelineStep, len(batch))
			copy(steps, batch)
			for j := range steps {
				if steps[j].Op != "intercube" {
					continue
				}
				other := cl.cat[steps[j].OtherID]
				op := other.partOn(p.shard)
				if op == nil || op.ids[rep] == "" {
					return nil
				}
				steps[j].OtherID = op.ids[rep]
			}
			return &cubeserver.Request{Op: "pipeline", CubeID: p.ids[rep], Pipeline: steps}
		})
		if err != nil {
			return err
		}
		shapes[i] = shape
		newParts[i] = part{
			shard: p.shard, leadLo: p.leadLo, leadHi: p.leadHi, rows: shape.Rows, ids: ids,
		}
		return nil
	})
	if err != nil {
		for i := range newParts {
			if newParts[i].ids != nil {
				next.parts = append(next.parts, newParts[i])
			}
		}
		cl.dropParts(next.parts)
		return nil, err
	}
	next.parts = newParts
	shape0 := shapes[0]
	next.measure = shape0.Measure
	next.implicit = datacube.Dimension{Name: shape0.ImplicitName, Size: shape0.ImplicitLen}
	next.explicit = append([]datacube.Dimension(nil), shape0.ExplicitDims...)
	if len(next.explicit) > 0 {
		next.explicit[0].Size = cur.leadSize()
	}
	return next, nil
}

// tolerancePartsAligned reports whether every part's global row offset
// is a multiple of the coarsest pyramid tier's row span, which makes
// shard-local tier blocks coincide with the single-engine cube's tier
// blocks (tier means are pure functions of the covered rows, so aligned
// blocks are bit-identical across deployments).
func (cl *Cluster) tolerancePartsAligned(e *entry) bool {
	f := cl.cfg.Engine.PyramidFactor()
	if f <= 1 {
		return false
	}
	start := 0
	for i := range e.parts {
		if start%f != 0 {
			return false
		}
		start += e.parts[i].rows
	}
	return true
}

// partOn returns the entry's part on a shard, nil if absent.
func (e *entry) partOn(shard int) *part {
	for i := range e.parts {
		if e.parts[i].shard == shard {
			return &e.parts[i]
		}
	}
	return nil
}

// subsetRowsEntry executes the row-range barrier: global bounds are
// validated once at the coordinator, then each overlapping shard trims
// its slice locally with re-based bounds. Only range arithmetic
// crosses the wire.
func (cl *Cluster) subsetRowsEntry(cur *entry, lo, hi int) (*entry, error) {
	if len(cur.explicit) == 0 {
		return nil, fmt.Errorf("datacube: cube has no explicit dimensions")
	}
	lead := cur.explicit[0].Size
	if lo < 0 || hi > lead || lo >= hi {
		return nil, fmt.Errorf("datacube: row subset [%d,%d) out of range [0,%d)", lo, hi, lead)
	}
	next := &entry{measure: cur.measure, implicit: cur.implicit}
	next.explicit = append([]datacube.Dimension(nil), cur.explicit...)
	next.explicit[0].Size = hi - lo
	type job struct {
		p        *part
		olo, ohi int
	}
	var jobs []job
	for i := range cur.parts {
		p := &cur.parts[i]
		olo, ohi := max(lo, p.leadLo), min(hi, p.leadHi)
		if olo < ohi {
			jobs = append(jobs, job{p: p, olo: olo, ohi: ohi})
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("cubecluster: row subset [%d,%d) matched no shard", lo, hi)
	}
	newParts := make([]part, len(jobs))
	err := forEachPart(len(jobs), func(i int) error {
		j := jobs[i]
		shape, ids, _, err := cl.writeShard(j.p.shard, func(rep int) *cubeserver.Request {
			if j.p.ids[rep] == "" {
				return nil
			}
			return &cubeserver.Request{Op: "subsetrows", CubeID: j.p.ids[rep], Lo: j.olo - j.p.leadLo, Hi: j.ohi - j.p.leadLo}
		})
		if err != nil {
			return err
		}
		newParts[i] = part{
			shard: j.p.shard, leadLo: j.olo - lo, leadHi: j.ohi - lo, rows: shape.Rows, ids: ids,
		}
		return nil
	})
	if err != nil {
		for i := range newParts {
			if newParts[i].ids != nil {
				next.parts = append(next.parts, newParts[i])
			}
		}
		cl.dropParts(next.parts)
		return nil, err
	}
	next.parts = newParts
	return next, nil
}

// aggRowsEntry executes the row-collapse barrier. Ops with a
// registered partial merge gather one float64 per implicit position
// per shard and fold them at the coordinator — the reduced-partials
// path. Ops without one (std, quantile, run statistics) fall back to
// gathering full columns in global row order, which is bit-identical
// for any op but costs a full transfer; the fallback is counted so the
// C3 sweep can show the difference. Either way the merged global row
// is landed as a fresh 1-row cube on shard 0.
func (cl *Cluster) aggRowsEntry(cur *entry, op string, params []float64) (*entry, error) {
	n := cur.implicit.Size
	var row []float32
	if pm, ok := datacube.LookupRowOpMerge(op); ok {
		partialOp := pm.PartialOp
		if partialOp == "" {
			partialOp = op
		}
		partials := make([][]float64, len(cur.parts))
		weights := make([]int, len(cur.parts))
		err := forEachPart(len(cur.parts), func(i int) error {
			resp, err := cl.readPart(&cur.parts[i], &cubeserver.Request{Op: "aggpartial", RowOp: partialOp, Params: params})
			if err != nil {
				return err
			}
			partials[i] = resp.Partials
			weights[i] = cur.parts[i].rows
			return nil
		})
		if err != nil {
			return nil, err
		}
		merged, err := datacube.MergeRowPartials(op, partials, weights, params)
		if err != nil {
			return nil, err
		}
		row = merged
	} else {
		// an unknown op fails here, before a full gather is paid for
		// and counted as a fallback
		if _, ok := datacube.LookupRowOp(op); !ok {
			return nil, fmt.Errorf("datacube: unknown row op %q", op)
		}
		cl.met.mergeFB.Inc()
		vals, err := cl.gatherValues(cur)
		if err != nil {
			return nil, err
		}
		if row, err = datacube.ReduceColumns(op, params, vals); err != nil {
			return nil, err
		}
	}

	shape, ids, _, err := cl.writeShard(0, func(int) *cubeserver.Request {
		return &cubeserver.Request{
			Op: "putcube", Var: cur.measure,
			Dims:        []datacube.Dimension{{Name: "all", Size: 1}},
			ImplicitDim: cur.implicit.Name,
			Values:      [][]float32{row},
		}
	})
	if err != nil {
		return nil, err
	}
	return &entry{
		measure:  cur.measure,
		explicit: []datacube.Dimension{{Name: "all", Size: 1}},
		implicit: datacube.Dimension{Name: cur.implicit.Name, Size: n},
		parts:    []part{{shard: 0, leadLo: 0, leadHi: 1, rows: shape.Rows, ids: ids}},
	}, nil
}

// dropParts best-effort deletes part cubes on their replicas (cleanup
// of temporaries and half-built entries).
func (cl *Cluster) dropParts(parts []part) {
	for i := range parts {
		p := &parts[i]
		for rep, id := range p.ids {
			if id == "" || cl.isDown(p.shard, rep) {
				continue
			}
			if _, err := cl.do(p.shard, rep, &cubeserver.Request{Op: "delete", CubeID: id}); err != nil {
				cl.markDown(p.shard, rep)
			}
		}
	}
}
