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

// send sends one request over one replica transport with byte
// accounting and latency/ops instrumentation. A non-nil error is a
// transport failure.
func (cl *Cluster) send(shard int, tr Transport, req *cubeserver.Request) (*cubeserver.Response, error) {
	label := strconv.Itoa(shard)
	cl.met.scatterOps.With(label).Inc()
	cl.met.scatterB.Add(float64(requestBytes(req)))
	start := time.Now()
	resp, err := tr.Do(req)
	cl.met.observeShard(label, start)
	if err != nil {
		return nil, err
	}
	cl.met.gatherB.Add(float64(responseBytes(resp)))
	return resp, nil
}

// markDown takes a replica out of rotation (transport failure or
// engine-closed response over tr) and flags it stale: it must be
// resynced by Heal before serving again. A failure over a transport
// the replica no longer uses (ReplaceLocalReplica swapped it since the
// request was prepared) says nothing about the replica and is ignored.
// Replica transports and health flags have their own lock (stateMu)
// because unlocked pipelines read and mark them outside cl.mu.
func (cl *Cluster) markDown(shard, rep int, tr Transport) {
	cl.stateMu.Lock()
	defer cl.stateMu.Unlock()
	r := cl.shards[shard][rep]
	if r.tr != tr {
		return
	}
	if !r.down {
		r.down = true
		cl.met.failovers.Inc()
		cl.met.replicaUp.With(strconv.Itoa(shard), strconv.Itoa(rep)).Set(0)
	}
	r.stale = true
}

// markUp returns a resynced replica to rotation.
func (cl *Cluster) markUp(shard, rep int) {
	cl.stateMu.Lock()
	defer cl.stateMu.Unlock()
	r := cl.shards[shard][rep]
	r.down, r.stale = false, false
	cl.met.replicaUp.With(strconv.Itoa(shard), strconv.Itoa(rep)).Set(1)
}

func (cl *Cluster) isDown(shard, rep int) bool {
	cl.stateMu.Lock()
	defer cl.stateMu.Unlock()
	return cl.shards[shard][rep].down
}

// healthy reports whether a replica is neither down nor stale.
func (cl *Cluster) healthy(shard, rep int) bool {
	cl.stateMu.Lock()
	defer cl.stateMu.Unlock()
	r := cl.shards[shard][rep]
	return !r.down && !r.stale
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

// attempt is one replica's ready-to-send copy of a read.
type attempt struct {
	rep int
	tr  Transport
	req *cubeserver.Request
}

// route is a read of one shard prepared under cl.mu: an attempt per
// replica that was up, in preference order. It holds values only —
// transports and shard-local cube IDs — so it can be sent with no lock
// while Heal rewrites the catalog's IDs or a replica is replaced.
type route struct {
	shard int
	tries []attempt
}

// routeRead prepares a read of a shard; mk builds the request for one
// replica, or returns nil where that replica lacks the data.
func (cl *Cluster) routeRead(shard int, mk func(rep int) *cubeserver.Request) route {
	rt := route{shard: shard}
	for rep, r := range cl.shards[shard] {
		if cl.isDown(shard, rep) {
			continue
		}
		if req := mk(rep); req != nil {
			rt.tries = append(rt.tries, attempt{rep: rep, tr: r.tr, req: req})
		}
	}
	return rt
}

// read serves a route from its first live replica, failing over to
// the next on transport errors. A logical error from a healthy replica
// is returned as-is (it is deterministic — every replica would refuse
// identically); an engine-closed response means the replica process is
// effectively dead and triggers failover too.
func (cl *Cluster) read(rt route) (*cubeserver.Response, error) {
	for _, a := range rt.tries {
		if cl.isDown(rt.shard, a.rep) {
			continue
		}
		resp, err := cl.send(rt.shard, a.tr, a.req)
		if err != nil || resp.ErrCode == cubeserver.CodeEngineClosed {
			cl.markDown(rt.shard, a.rep, a.tr)
			continue
		}
		if err := cubeserver.ResponseError(resp); err != nil {
			return nil, err
		}
		return resp, nil
	}
	return nil, fmt.Errorf("%w %d", ErrNoReplicas, rt.shard)
}

// readPart serves a read of one part of a cube, with failover.
func (cl *Cluster) readPart(p *part, req *cubeserver.Request) (*cubeserver.Response, error) {
	return cl.read(cl.routeRead(p.shard, func(rep int) *cubeserver.Request {
		if p.ids[rep] == "" {
			return nil
		}
		r := *req
		r.CubeID = p.ids[rep]
		return &r
	}))
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
		tr := reps[rep].tr
		resp, err := cl.send(shard, tr, req)
		if err != nil || resp.ErrCode == cubeserver.CodeEngineClosed {
			cl.markDown(shard, rep, tr)
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

// forwarded is a pipeline step as a shard runs it inside a fused
// segment: Keep is the coordinator's business, and a tolerance only
// reaches a shard on the terminal segment (runSteps re-applies it).
func forwarded(st cubeserver.PipelineStep) cubeserver.PipelineStep {
	st.Keep = false
	st.Tolerance = 0
	return st
}

// registersNothing reports whether a pipeline leaves nothing on any
// shard: a row-local segment without Keep ending in an aggrows whose op
// has a partial merge. Such a pipeline runs off the coordinator lock
// (partialQuery).
func registersNothing(steps []cubeserver.PipelineStep) bool {
	n := len(steps)
	if n == 0 || steps[n-1].Op != "aggrows" {
		return false
	}
	if _, ok := datacube.LookupRowOpMerge(steps[n-1].RowOp); !ok {
		return false
	}
	for _, st := range steps[:n-1] {
		if !forwardable(st.Op) || st.Keep {
			return false
		}
	}
	return true
}

// pipeline runs a pipeline request and returns the shape of its
// result.
func (cl *Cluster) pipeline(srcID string, steps []cubeserver.PipelineStep) (cubeserver.Shape, error) {
	if registersNothing(steps) {
		return cl.partialQuery(srcID, steps)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return cubeserver.Shape{}, errClosed
	}
	e, err := cl.runSteps(srcID, steps)
	if err != nil {
		return cubeserver.Shape{}, err
	}
	return e.shape(), nil
}

// partialQuery runs a pipeline that registers nothing on any shard.
// cl.mu is held to resolve and pin the inputs and prepare the shard
// requests, and again to register the merged row; the scatter between
// runs unlocked, against routes that hold everything it sends by
// value. A delete of a pinned input meanwhile takes effect in the
// catalog at once and on the shards at the last unpin.
func (cl *Cluster) partialQuery(srcID string, steps []cubeserver.PipelineStep) (cubeserver.Shape, error) {
	agg := steps[len(steps)-1]
	cl.mu.Lock()
	inputs, routes, err := cl.preparePartial(srcID, steps)
	cl.pin(inputs)
	cl.mu.Unlock()
	if err != nil {
		return cubeserver.Shape{}, err
	}

	row, shape, err := cl.mergePartials(routes, agg.RowOp, agg.Params)

	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.unpin(inputs)
	if err != nil {
		return cubeserver.Shape{}, fmt.Errorf("pipeline step %d: %w", len(steps)-1, err)
	}
	return cl.register(heldEntry(shape, row)).shape(), nil
}

// preparePartial resolves a registersNothing pipeline's source and
// operands (the inputs to pin) and prepares its per-part routes.
// Called with cl.mu held.
func (cl *Cluster) preparePartial(srcID string, steps []cubeserver.PipelineStep) ([]*entry, []route, error) {
	if cl.closed {
		return nil, nil, errClosed
	}
	src, err := cl.getEntry(srcID)
	if err != nil {
		return nil, nil, err
	}
	inputs := []*entry{src}
	seg := make([]cubeserver.PipelineStep, len(steps)-1)
	for i, st := range steps[:len(seg)] {
		if st.Op == "intercube" {
			other, err := cl.operand(src, st.OtherID)
			if err != nil {
				return nil, nil, fmt.Errorf("pipeline step %d: %w", i, err)
			}
			inputs = append(inputs, other)
		}
		seg[i] = forwarded(st)
	}
	agg := steps[len(seg)]
	routes, err := cl.partialRoutes(src, seg, agg.RowOp, agg.Params)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline step %d: %w", len(seg), err)
	}
	return inputs, routes, nil
}

// operand resolves an intercube operand for cur, which must be
// co-sharded with it; coordinator-held rows are placed first.
func (cl *Cluster) operand(cur *entry, id string) (*entry, error) {
	other, err := cl.getEntry(id)
	if err != nil {
		return nil, fmt.Errorf("intercube: %w", err)
	}
	if err := cl.place(cur); err != nil {
		return nil, err
	}
	if err := cl.place(other); err != nil {
		return nil, err
	}
	if !samePlacement(cur, other) {
		return nil, fmt.Errorf("%w (%s vs %s)", ErrPlacementMismatch, cur.id, other.id)
	}
	return other, nil
}

// runSteps executes a pipeline against the cluster under cl.mu:
// row-local runs are batched into one fused per-shard pipeline request
// per segment, and the barriers between them execute at the
// coordinator moving only reduced partials or range bounds (a segment
// ending in an aggrows travels in the same request as its partial).
// Unkept intermediate entries are deleted before returning, success or
// not.
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
	fail := func(err error) (*entry, error) {
		for _, t := range temps {
			cl.dropParts(t.parts)
		}
		return nil, err
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
				if _, err := cl.operand(cur, st.OtherID); err != nil {
					return fail(fmt.Errorf("pipeline step %d: %w", i, err))
				}
			}
			batch = append(batch, forwarded(st))
			if keepHere {
				if err := flush(true); err != nil {
					return fail(err)
				}
			}
		case st.Op == "subsetrows":
			if err := flush(false); err != nil {
				return fail(err)
			}
			next, err := cl.subsetRowsEntry(cur, st.Lo, st.Hi)
			if err != nil {
				return fail(fmt.Errorf("pipeline step %d: %w", i, err))
			}
			advance(next, keepHere)
		case st.Op == "aggrows":
			next, err := cl.aggRowsEntry(cur, batch, st.RowOp, st.Params)
			batch = nil
			if err != nil {
				return fail(fmt.Errorf("pipeline step %d: %w", i, err))
			}
			advance(next, keepHere)
		default:
			return fail(fmt.Errorf("pipeline step %d: %w %q", i, cubeserver.ErrUnknownOp, st.Op))
		}
	}
	if finalTol > 0 && len(batch) > 0 && cl.tolerancePartsAligned(cur) {
		batch[len(batch)-1].Tolerance = finalTol
	}
	if err := flush(false); err != nil {
		return fail(err)
	}
	for _, t := range temps {
		if t != cur {
			cl.dropParts(t.parts)
		}
	}
	if cl.cat[cur.id] != cur {
		cl.register(cur)
	}
	return cur, nil
}

// shardSteps is a fused segment as one replica of part p runs it:
// intercube operands are renamed to that replica's cube IDs. ok is
// false where the replica lacks the part or an operand (it missed a
// write and is stale for this cube).
func (cl *Cluster) shardSteps(p *part, rep int, batch []cubeserver.PipelineStep) (steps []cubeserver.PipelineStep, ok bool) {
	if p.ids[rep] == "" {
		return nil, false
	}
	steps = make([]cubeserver.PipelineStep, len(batch), len(batch)+1)
	copy(steps, batch)
	for j := range steps {
		if steps[j].Op != "intercube" {
			continue
		}
		op := cl.cat[steps[j].OtherID].partOn(p.shard)
		if op == nil || op.ids[rep] == "" {
			return nil, false
		}
		steps[j].OtherID = op.ids[rep]
	}
	return steps, true
}

// flushBatch runs one fused segment on every part: each shard executes
// the whole row-local step chain server-side in a single request per
// replica. Leading ranges are invariant under row-local ops, so parts
// keep their placement; rows and the implicit axis come back in the
// shape.
func (cl *Cluster) flushBatch(cur *entry, batch []cubeserver.PipelineStep) (*entry, error) {
	if err := cl.place(cur); err != nil {
		return nil, err
	}
	next := &entry{measure: cur.measure, implicit: cur.implicit}
	shapes := make([]cubeserver.Shape, len(cur.parts))
	newParts := make([]part, len(cur.parts))
	err := forEachPart(len(cur.parts), func(i int) error {
		p := &cur.parts[i]
		shape, ids, _, err := cl.writeShard(p.shard, func(rep int) *cubeserver.Request {
			steps, ok := cl.shardSteps(p, rep, batch)
			if !ok {
				return nil
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
	if err := cl.place(cur); err != nil {
		return nil, err
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

// aggRowsEntry runs the row-local segment seg on cur and then the
// row-collapse barrier, returning the global 1 × N row as a
// coordinator-held entry. Ops with a registered partial merge send
// segment and partial in one request per part and fold the float64
// partials at the coordinator (partialRoutes, mergePartials) — the
// same function an unlocked partialQuery runs. Ops without one (std,
// quantile, run statistics) run the segment, gather full columns in
// global row order and reduce them at the coordinator, which is
// bit-identical for any op but costs a full transfer; the fallback is
// counted so the C3 sweep can show the difference.
func (cl *Cluster) aggRowsEntry(cur *entry, seg []cubeserver.PipelineStep, op string, params []float64) (*entry, error) {
	if _, ok := datacube.LookupRowOpMerge(op); ok {
		routes, err := cl.partialRoutes(cur, seg, op, params)
		if err != nil {
			return nil, err
		}
		row, shape, err := cl.mergePartials(routes, op, params)
		if err != nil {
			return nil, err
		}
		return heldEntry(shape, row), nil
	}
	// an unknown op fails here, before a full gather is paid for and
	// counted as a fallback
	if _, ok := datacube.LookupRowOp(op); !ok {
		return nil, fmt.Errorf("datacube: unknown row op %q", op)
	}
	if len(seg) > 0 {
		next, err := cl.flushBatch(cur, seg)
		if err != nil {
			return nil, err
		}
		defer cl.dropParts(next.parts)
		cur = next
	}
	cl.met.mergeFB.Inc()
	vals, err := cl.gatherValues(cur)
	if err != nil {
		return nil, err
	}
	row, err := datacube.ReduceColumns(op, params, vals)
	if err != nil {
		return nil, err
	}
	return heldEntry(cubeserver.Shape{Measure: cur.measure, ImplicitName: cur.implicit.Name}, row), nil
}

// partialRoutes prepares, for every part of cur, the shard pipeline
// that runs the row-local segment seg and ends in a partial step for
// the mergeable row op op. Called with cl.mu held; a coordinator-held
// cur is placed first.
func (cl *Cluster) partialRoutes(cur *entry, seg []cubeserver.PipelineStep, op string, params []float64) ([]route, error) {
	if err := cl.place(cur); err != nil {
		return nil, err
	}
	pm, _ := datacube.LookupRowOpMerge(op)
	partial := cubeserver.PipelineStep{Op: "partial", RowOp: op, Params: params}
	if pm.PartialOp != "" {
		partial.RowOp = pm.PartialOp
	}
	routes := make([]route, len(cur.parts))
	for i := range cur.parts {
		p := &cur.parts[i]
		routes[i] = cl.routeRead(p.shard, func(rep int) *cubeserver.Request {
			steps, ok := cl.shardSteps(p, rep, seg)
			if !ok {
				return nil
			}
			return &cubeserver.Request{Op: "pipeline", CubeID: p.ids[rep], Pipeline: append(steps, partial)}
		})
	}
	return routes, nil
}

// mergePartials sends partialRoutes' requests, one per part and
// concurrently, and folds the partials into the global row with
// datacube.MergeRowPartials, weighting each by the rows it reduced.
// It needs no lock. shape is the reduced rows' shape on the first part.
func (cl *Cluster) mergePartials(routes []route, op string, params []float64) ([]float32, cubeserver.Shape, error) {
	partials := make([][]float64, len(routes))
	weights := make([]int, len(routes))
	shapes := make([]cubeserver.Shape, len(routes))
	err := forEachPart(len(routes), func(i int) error {
		resp, err := cl.read(routes[i])
		if err != nil {
			return err
		}
		partials[i], weights[i], shapes[i] = resp.Partials, resp.Shape.Rows, resp.Shape
		return nil
	})
	if err != nil {
		return nil, cubeserver.Shape{}, err
	}
	row, err := datacube.MergeRowPartials(op, partials, weights, params)
	return row, shapes[0], err
}

// dropParts best-effort deletes part cubes on their replicas (cleanup
// of temporaries, half-built and deleted entries).
func (cl *Cluster) dropParts(parts []part) {
	for i := range parts {
		p := &parts[i]
		for rep, id := range p.ids {
			if id == "" || cl.isDown(p.shard, rep) {
				continue
			}
			tr := cl.shards[p.shard][rep].tr
			if _, err := cl.send(p.shard, tr, &cubeserver.Request{Op: "delete", CubeID: id}); err != nil {
				cl.markDown(p.shard, rep, tr)
			}
		}
	}
}
