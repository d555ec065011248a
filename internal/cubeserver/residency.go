package cubeserver

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/datacube"
	"repro/internal/obs"
)

// This file implements the server-side resident-byte budget: when the
// cubes a dispatcher manages outgrow the budget, the coldest unpinned
// cube is demoted down a resolution ladder (full → 2x → 4x → 8x
// row-coarsened stand-in, each step pair-averaging rows of the current
// representation) and, only once the whole population sits at the
// coarsest rung, dropped to a recipe-only placeholder — the payload is
// freed but the ID stays resolvable. Demotion is invisible to clients:
// the cube keeps its public ID (datacube.Engine.Adopt swaps the
// representation underneath it), and any operation that touches the
// cube's data first re-promotes it to full fidelity by re-running its
// recipe — the request that created it (re-import for importfiles /
// importshard, recompute for operator and pipeline outputs). Cubes
// without a replayable recipe (putcube payloads, kept pipeline
// intermediates) are pinned and never demoted.

// maxDemoteLevel caps the ladder at 8x row coarsening; past it the only
// further step is dropping the cube.
const maxDemoteLevel = 3

// resEntry tracks one managed cube's residency state.
type resEntry struct {
	id         string
	lastAccess atomic.Uint64
	level      int   // 0 = full resolution, k = 2^k-fold row coarsening
	bytes      int64 // resident payload at the current representation
	recipe     *Request
	pinned     bool
}

type resMetrics struct {
	demotions  *obs.Counter
	promotions *obs.Counter
	drops      *obs.Counter
}

// residentDispatcher enforces a resident-byte budget around an
// engine-backed dispatcher.
type residentDispatcher struct {
	engine *datacube.Engine
	inner  Dispatcher
	budget int64
	met    resMetrics
	seq    atomic.Uint64
	total  atomic.Int64 // resident bytes across managed entries

	// mu orders representation swaps against data access: operations
	// that read cube data hold it shared for the whole inner dispatch,
	// so demotion (exclusive) can never swap a representation out from
	// under a running operator.
	mu      sync.RWMutex
	entries map[string]*resEntry
}

// ResidentDispatcher wraps an engine in a Dispatcher that keeps the
// cubes it manages within budgetBytes of resident memory, demoting the
// coldest cubes to coarser stand-ins (and ultimately dropping them)
// under pressure, and transparently re-promoting them on access.
// budgetBytes <= 0 disables enforcement (accounting still runs). reg
// (optional) receives cubeserver_resident_bytes,
// cubeserver_demotions_total, cubeserver_promotions_total and
// cubeserver_drops_total.
func ResidentDispatcher(engine *datacube.Engine, budgetBytes int64, reg *obs.Registry) Dispatcher {
	d := &residentDispatcher{
		engine:  engine,
		inner:   EngineDispatcher(engine),
		budget:  budgetBytes,
		entries: make(map[string]*resEntry),
	}
	if reg != nil {
		reg.GaugeFunc("cubeserver_resident_bytes",
			"resident payload bytes across budget-managed cubes",
			func() float64 { return float64(d.total.Load()) })
		d.met.demotions = reg.Counter("cubeserver_demotions_total",
			"cubes demoted one rung down the resolution ladder")
		d.met.promotions = reg.Counter("cubeserver_promotions_total",
			"cubes re-promoted to full resolution on access")
		d.met.drops = reg.Counter("cubeserver_drops_total",
			"cube payloads dropped to recipe-only placeholders after exhausting the demotion ladder")
	}
	return d
}

// dataOp reports whether op reads or produces cube payload and so must
// see full-resolution sources. Control-plane operations (list, stats,
// delete, metadata, ping) work on demoted cubes as-is.
func dataOp(op string) bool {
	switch op {
	case "ping", "list", "stats", "delete", "setmeta", "getmeta":
		return false
	}
	return true
}

// producesCube reports whether a successful op registered a fresh cube
// the budget should manage.
func producesCube(op string) bool {
	switch op {
	case "importfiles", "importshard", "putcube", "pipeline",
		"apply", "reduce", "reducegroup", "reducestride",
		"subset", "subsetrows", "intercube", "aggrows":
		return true
	}
	return false
}

// sourceIDs lists the cubes a request reads.
func sourceIDs(req *Request) []string {
	var ids []string
	if req.CubeID != "" {
		ids = append(ids, req.CubeID)
	}
	if req.OtherID != "" {
		ids = append(ids, req.OtherID)
	}
	for _, st := range req.Pipeline {
		if st.OtherID != "" {
			ids = append(ids, st.OtherID)
		}
	}
	return ids
}

func (d *residentDispatcher) Dispatch(req *Request) *Response {
	now := d.seq.Add(1)
	if !dataOp(req.Op) {
		resp := d.inner.Dispatch(req)
		if req.Op == "delete" && resp.Err == "" {
			d.mu.Lock()
			d.forgetLocked(req.CubeID)
			d.mu.Unlock()
		}
		return resp
	}

	srcs := sourceIDs(req)
	if err := d.acquire(srcs, now); err != nil {
		return &Response{Err: err.Error(), ErrCode: ErrCodeOf(err)}
	}
	resp := d.inner.Dispatch(req)
	d.mu.RUnlock()

	d.mu.Lock()
	defer d.mu.Unlock()
	if resp.Err == "" && producesCube(req.Op) && resp.Shape.CubeID != "" {
		d.registerLocked(req, resp, now)
	}
	d.refreshLocked()
	d.enforceLocked()
	return resp
}

// acquire touches the source entries and guarantees they are at full
// resolution, returning with the shared lock HELD on success.
func (d *residentDispatcher) acquire(ids []string, now uint64) error {
	for {
		d.mu.RLock()
		demoted := false
		for _, id := range ids {
			if en := d.entries[id]; en != nil {
				en.lastAccess.Store(now)
				if en.level > 0 {
					demoted = true
				}
			}
		}
		if !demoted {
			return nil
		}
		d.mu.RUnlock()
		d.mu.Lock()
		var err error
		for _, id := range ids {
			if e2 := d.promoteLocked(id, 0); e2 != nil {
				err = e2
				break
			}
		}
		d.mu.Unlock()
		if err != nil {
			return err
		}
		// loop: re-check under the shared lock in case another request's
		// enforcement demoted a source between the two lock holds
	}
}

// registerLocked records a freshly produced cube under management.
func (d *residentDispatcher) registerLocked(req *Request, resp *Response, now uint64) {
	id := resp.Shape.CubeID
	recipe := cloneRequest(req)
	pinned := false
	switch req.Op {
	case "putcube":
		// the payload arrived over the wire; there is nothing to replay
		pinned, recipe = true, nil
	case "pipeline":
		// kept intermediates materialize alongside the final cube with
		// server-assigned IDs we cannot tie to a replayable prefix; pin
		// them so eviction never strands a client handle
		for i := range recipe.Pipeline {
			recipe.Pipeline[i].Keep = false
		}
	}
	en := &resEntry{id: id, recipe: recipe, pinned: pinned}
	en.lastAccess.Store(now)
	d.entries[id] = en
	if req.Op == "pipeline" {
		for _, st := range req.Pipeline {
			if st.Keep {
				d.adoptKeptLocked(resp.Shape.CubeID, now)
				break
			}
		}
	}
}

// adoptKeptLocked pins every engine-resident cube that is not yet
// managed — after a Keep-bearing pipeline these are exactly the kept
// intermediates (plus any cube created outside this dispatcher, which
// must never be evicted either).
func (d *residentDispatcher) adoptKeptLocked(finalID string, now uint64) {
	for _, id := range d.engine.List() {
		if id == finalID {
			continue
		}
		if _, ok := d.entries[id]; !ok {
			en := &resEntry{id: id, pinned: true}
			en.lastAccess.Store(now)
			d.entries[id] = en
		}
	}
}

// cloneRequest copies a request for use as a rebuild recipe, dropping
// bulky payload fields that are never replayed.
func cloneRequest(req *Request) *Request {
	r := *req
	r.Values = nil
	r.Pipeline = append([]PipelineStep(nil), req.Pipeline...)
	return &r
}

// refreshLocked re-reads live payload sizes (tier builds grow a cube
// after registration) and drops entries whose cube disappeared.
func (d *residentDispatcher) refreshLocked() {
	var total int64
	for id, en := range d.entries {
		c, err := d.engine.Get(id)
		if err != nil {
			delete(d.entries, id)
			continue
		}
		en.bytes = c.Bytes()
		total += en.bytes
	}
	d.total.Store(total)
}

// enforceLocked demotes (then drops) coldest-first until the managed
// population fits the budget.
func (d *residentDispatcher) enforceLocked() {
	if d.budget <= 0 {
		return
	}
	for d.total.Load() > d.budget {
		if en := d.coldestLocked(func(e *resEntry) bool {
			return !e.pinned && e.level < maxDemoteLevel && d.sourcesAliveLocked(e)
		}); en != nil {
			if d.demoteLocked(en) {
				continue
			}
			// demotion could not shrink it further; fall through to drop
			en.level = maxDemoteLevel
			continue
		}
		en := d.coldestLocked(func(e *resEntry) bool {
			return !e.pinned && e.level <= maxDemoteLevel && d.sourcesAliveLocked(e)
		})
		if en == nil {
			return // only pinned/unreplayable/placeholder cubes remain; budget is best-effort
		}
		d.dropLocked(en)
	}
}

// sourcesAliveLocked reports whether every cube the entry's recipe
// reads still exists — demoting a cube whose recipe can no longer be
// replayed would lose it.
func (d *residentDispatcher) sourcesAliveLocked(en *resEntry) bool {
	if en.recipe == nil {
		return false
	}
	for _, id := range sourceIDs(en.recipe) {
		if _, err := d.engine.Get(id); err != nil {
			return false
		}
	}
	return true
}

func (d *residentDispatcher) coldestLocked(ok func(*resEntry) bool) *resEntry {
	var best *resEntry
	for _, en := range d.entries {
		if !ok(en) {
			continue
		}
		if best == nil || en.lastAccess.Load() < best.lastAccess.Load() {
			best = en
		}
	}
	return best
}

// demoteLocked replaces the cube's representation with a 2x
// row-coarsened stand-in (pair-averaged rows of the CURRENT
// representation, so each rung halves again). Returns false when the
// representation cannot shrink any further.
func (d *residentDispatcher) demoteLocked(en *resEntry) bool {
	c, err := d.engine.Get(en.id)
	if err != nil {
		d.forgetLocked(en.id)
		return true
	}
	rows, width := c.Rows(), c.ImplicitLen()
	if rows < 2 || width == 0 {
		return false
	}
	vals := c.Values()
	nr := (rows + 1) / 2
	coarse, err := d.engine.NewCubeFromFunc(
		fmt.Sprintf("%s-demoted-%dx", c.Measure(), 1<<(en.level+1)),
		[]datacube.Dimension{{Name: "row", Size: nr}},
		datacube.Dimension{Name: c.ImplicitDim().Name, Size: width},
		func(r, t int) float32 {
			if 2*r+1 < rows {
				return (vals[2*r][t] + vals[2*r+1][t]) / 2
			}
			return vals[2*r][t]
		})
	if err != nil {
		return false
	}
	if err := d.engine.Adopt(en.id, coarse); err != nil {
		_ = coarse.Delete()
		return false
	}
	d.total.Add(coarse.Bytes() - en.bytes)
	en.bytes = coarse.Bytes()
	en.level++
	d.met.demotions.Inc()
	return true
}

// promoteLocked rebuilds the cube at full resolution by replaying its
// recipe, recursively promoting recipe sources first.
func (d *residentDispatcher) promoteLocked(id string, depth int) error {
	en := d.entries[id]
	if en == nil || en.level == 0 {
		return nil
	}
	if depth > 16 {
		return fmt.Errorf("cubeserver: recipe chain for %q too deep", id)
	}
	for _, sid := range sourceIDs(en.recipe) {
		if err := d.promoteLocked(sid, depth+1); err != nil {
			return err
		}
	}
	c, err := d.rebuild(en.recipe)
	if err != nil {
		return fmt.Errorf("cubeserver: re-promote %q: %w", id, err)
	}
	if err := d.engine.Adopt(id, c); err != nil {
		_ = c.Delete()
		return err
	}
	d.total.Add(c.Bytes() - en.bytes)
	en.bytes = c.Bytes()
	en.level = 0
	d.met.promotions.Inc()
	return nil
}

// rebuild replays a recipe request against the engine, returning the
// freshly produced full-resolution cube.
func (d *residentDispatcher) rebuild(req *Request) (*datacube.Cube, error) {
	get := func(id string) (*datacube.Cube, error) { return d.engine.Get(id) }
	switch req.Op {
	case "importfiles":
		return d.engine.ImportFiles(req.Paths, req.Var, req.ImplicitDim)
	case "importshard":
		c, found, err := d.engine.ImportShard(req.Paths, req.Var, req.ImplicitDim, req.Shard, req.Shards)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("cubeserver: importshard recipe produced no slice")
		}
		return c, nil
	case "pipeline":
		return runPipeline(d.engine, &PipelineRequest{CubeID: req.CubeID, Steps: req.Pipeline})
	case "apply":
		c, err := get(req.CubeID)
		if err != nil {
			return nil, err
		}
		return c.Apply(req.Expr)
	case "reduce":
		c, err := get(req.CubeID)
		if err != nil {
			return nil, err
		}
		return c.Reduce(req.RowOp, req.Params...)
	case "reducegroup":
		c, err := get(req.CubeID)
		if err != nil {
			return nil, err
		}
		return c.ReduceGroup(req.RowOp, req.Group, req.Params...)
	case "reducestride":
		c, err := get(req.CubeID)
		if err != nil {
			return nil, err
		}
		return c.ReduceStride(req.RowOp, req.Group, req.Params...)
	case "subset":
		c, err := get(req.CubeID)
		if err != nil {
			return nil, err
		}
		return c.Subset(req.Lo, req.Hi)
	case "subsetrows":
		c, err := get(req.CubeID)
		if err != nil {
			return nil, err
		}
		return c.SubsetRows(req.Lo, req.Hi)
	case "intercube":
		a, err := get(req.CubeID)
		if err != nil {
			return nil, err
		}
		b, err := get(req.OtherID)
		if err != nil {
			return nil, err
		}
		return a.Intercube(b, req.RowOp)
	case "aggrows":
		c, err := get(req.CubeID)
		if err != nil {
			return nil, err
		}
		return c.AggregateRows(req.RowOp, req.Params...)
	}
	return nil, fmt.Errorf("cubeserver: no rebuild recipe for op %q", req.Op)
}

// dropLocked frees the cube's payload, leaving a recipe-only
// placeholder behind — the end of the ladder. The ID stays resolvable
// (list/stats keep working) and the next data access rebuilds the cube
// through the ordinary promotion path; callers guarantee the recipe is
// replayable (sourcesAliveLocked). Only if the placeholder itself
// cannot be installed does the cube leave the catalog for good.
func (d *residentDispatcher) dropLocked(en *resEntry) {
	c, err := d.engine.Get(en.id)
	if err != nil {
		d.forgetLocked(en.id)
		return
	}
	ph, err := d.engine.NewCubeFromFunc(
		c.Measure()+"-dropped",
		[]datacube.Dimension{{Name: "row", Size: 1}},
		datacube.Dimension{Name: c.ImplicitDim().Name, Size: 1},
		func(r, t int) float32 { return 0 })
	if err == nil {
		err = d.engine.Adopt(en.id, ph)
		if err != nil {
			_ = ph.Delete()
		}
	}
	if err != nil {
		_ = d.engine.Delete(en.id)
		d.forgetLocked(en.id)
		d.met.drops.Inc()
		return
	}
	d.total.Add(ph.Bytes() - en.bytes)
	en.bytes = ph.Bytes()
	en.level = maxDemoteLevel + 1
	d.met.drops.Inc()
}

func (d *residentDispatcher) forgetLocked(id string) {
	if en, ok := d.entries[id]; ok {
		d.total.Add(-en.bytes)
		delete(d.entries, id)
	}
}
