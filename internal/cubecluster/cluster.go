package cubecluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/cubeserver"
	"repro/internal/datacube"
	"repro/internal/ncdf"
	"repro/internal/obs"
)

// Config parameterizes a cluster coordinator.
type Config struct {
	// Shards is the number of row-range shards (default 1).
	Shards int
	// Replicas is the number of replicas per shard (default 1).
	Replicas int
	// Engine configures each local replica engine built by NewLocal.
	Engine datacube.Config
	// Metrics receives coordinator instruments (optional).
	Metrics *obs.Registry
	// SpoolDir stages replica resync files for Heal (default: the OS
	// temp dir).
	SpoolDir string
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.SpoolDir == "" {
		c.SpoolDir = os.TempDir()
	}
	return c
}

// replica is one coordinator-side replica handle. down marks a replica
// the coordinator stopped trusting after a transport failure (or an
// engine-closed response — the engine equivalent of a dead process);
// stale additionally marks it as missing writes, requiring a Heal
// resync before it can serve again.
type replica struct {
	tr    Transport
	down  bool
	stale bool
}

// Cluster is the shard-aware coordinator. It implements
// cubeserver.Dispatcher: every wire operation a single engine serves is
// mapped onto scatter/gather over the shard fleet, so clients cannot
// tell a cluster from one big engine (beyond the speedup).
//
// The coordinator lock mu guards the catalog and serializes every
// operation that registers or deletes shard cubes. A pipeline that
// registers nothing on any shard (a row-local segment ending in a
// mergeable aggrows, the Listing-1 shape) holds it only to resolve and
// pin its inputs and to register the merged row; its scatter runs
// unlocked, so such queries overlap each other and everything else.
// Within one operation the per-shard scatter fans out concurrently,
// and further parallelism lives inside the shard engines' fragment
// executors.
type Cluster struct {
	mu      sync.Mutex
	stateMu sync.Mutex // replica transports and down/stale flags; see markDown
	cfg     Config
	shards  [][]*replica
	engines [][]*datacube.Engine // non-nil only for NewLocal replicas
	cat     map[string]*entry
	// unlisted holds entries deleted while pinned: out of the catalog,
	// their shard cubes wait for the last unpin.
	unlisted map[*entry]struct{}
	nextID   int
	healSeq  int
	met      *clMetrics
	closed   bool
}

// New builds a coordinator over caller-provided transports, one slice
// of replicas per shard.
func New(cfg Config, transports [][]Transport) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if len(transports) == 0 {
		return nil, fmt.Errorf("cubecluster: no shards")
	}
	cfg.Shards = len(transports)
	cl := &Cluster{
		cfg: cfg, cat: make(map[string]*entry), unlisted: make(map[*entry]struct{}),
		met: newCLMetrics(cfg.Metrics),
	}
	for s, reps := range transports {
		if len(reps) == 0 {
			return nil, fmt.Errorf("cubecluster: shard %d has no replicas", s)
		}
		row := make([]*replica, len(reps))
		for r, tr := range reps {
			row[r] = &replica{tr: tr}
			cl.met.replicaUp.With(strconv.Itoa(s), strconv.Itoa(r)).Set(1)
		}
		cl.shards = append(cl.shards, row)
	}
	return cl, nil
}

// NewLocal builds an in-process cluster: Shards×Replicas engines, each
// behind an EngineTransport. This is the benchmark and test
// deployment; production shards would be PoolTransport handles.
func NewLocal(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	transports := make([][]Transport, cfg.Shards)
	engines := make([][]*datacube.Engine, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		for r := 0; r < cfg.Replicas; r++ {
			e := datacube.NewEngine(cfg.Engine)
			engines[s] = append(engines[s], e)
			transports[s] = append(transports[s], NewEngineTransport(e))
		}
	}
	cl, err := New(cfg, transports)
	if err != nil {
		return nil, err
	}
	cl.engines = engines
	return cl, nil
}

// Engine returns the local replica engine at (shard, rep), or nil for
// clusters not built by NewLocal. Tests use it to kill replicas.
func (cl *Cluster) Engine(shard, rep int) *datacube.Engine {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.engines == nil || shard >= len(cl.engines) || rep >= len(cl.engines[shard]) {
		return nil
	}
	return cl.engines[shard][rep]
}

// Shards reports the shard count.
func (cl *Cluster) Shards() int { return len(cl.shards) }

// Ping probes the coordinator through the wire path.
func (cl *Cluster) Ping() error {
	resp := cl.Dispatch(&cubeserver.Request{Op: "ping"})
	if err := cubeserver.ResponseError(resp); err != nil {
		return err
	}
	if resp.Value != "pong" {
		return fmt.Errorf("cubecluster: unexpected ping reply %q", resp.Value)
	}
	return nil
}

// Close shuts down transports and any NewLocal engines.
func (cl *Cluster) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil
	}
	cl.closed = true
	for _, reps := range cl.shards {
		for _, r := range reps {
			_ = r.tr.Close()
		}
	}
	for _, row := range cl.engines {
		for _, e := range row {
			e.Close()
		}
	}
	return nil
}

// errClosed reports a request to a closed coordinator.
var errClosed = fmt.Errorf("cubecluster: coordinator closed: %w", datacube.ErrEngineClosed)

// Dispatch implements cubeserver.Dispatcher over the shard fleet.
func (cl *Cluster) Dispatch(req *cubeserver.Request) *cubeserver.Response {
	resp := &cubeserver.Response{}
	fail := func(err error) *cubeserver.Response {
		resp.Err = err.Error()
		resp.ErrCode = cubeserver.ErrCodeOf(err)
		return resp
	}
	switch req.Op {
	case "pipeline", "apply", "reduce", "reducegroup", "reducestride", "subset", "subsetrows", "intercube", "aggrows":
		steps := req.Pipeline
		if req.Op != "pipeline" {
			steps = []cubeserver.PipelineStep{{
				Op: req.Op, Expr: req.Expr, RowOp: req.RowOp, Params: req.Params,
				Group: req.Group, Lo: req.Lo, Hi: req.Hi, OtherID: req.OtherID,
			}}
		}
		shape, err := cl.pipeline(req.CubeID, steps)
		if err != nil {
			return fail(err)
		}
		resp.Shape = shape
		return resp
	}

	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return fail(errClosed)
	}
	switch req.Op {
	case "ping":
		resp.Value = "pong"
	case "importfiles":
		e, err := cl.importEntry(req)
		if err != nil {
			return fail(err)
		}
		resp.Shape = e.shape()
	case "row":
		e, err := cl.getEntry(req.CubeID)
		if err != nil {
			return fail(err)
		}
		row, err := cl.fetchRow(e, req.Row)
		if err != nil {
			return fail(err)
		}
		resp.Values = [][]float32{row}
	case "values":
		e, err := cl.getEntry(req.CubeID)
		if err != nil {
			return fail(err)
		}
		vals, err := cl.gatherValues(e)
		if err != nil {
			return fail(err)
		}
		resp.Values = vals
		resp.Shape = e.shape()
	case "scalar":
		e, err := cl.getEntry(req.CubeID)
		if err != nil {
			return fail(err)
		}
		if e.totalRows() != 1 || e.implicit.Size != 1 {
			return fail(fmt.Errorf("datacube: cube is %d×%d, not scalar", e.totalRows(), e.implicit.Size))
		}
		if e.row != nil {
			resp.Scalar = float64(e.row[0])
			break
		}
		r, err := cl.readPart(&e.parts[0], &cubeserver.Request{Op: "scalar"})
		if err != nil {
			return fail(err)
		}
		resp.Scalar = r.Scalar
	case "shape":
		e, err := cl.getEntry(req.CubeID)
		if err != nil {
			return fail(err)
		}
		resp.Shape = e.shape()
	case "list":
		resp.IDs = cl.listIDs()
	case "delete":
		e, err := cl.getEntry(req.CubeID)
		if err != nil {
			return fail(err)
		}
		cl.deleteEntry(e)
	case "export":
		e, err := cl.getEntry(req.CubeID)
		if err != nil {
			return fail(err)
		}
		if err := cl.exportEntry(e, req.Path); err != nil {
			return fail(err)
		}
	case "setmeta":
		e, err := cl.getEntry(req.CubeID)
		if err != nil {
			return fail(err)
		}
		e.meta[req.Key] = req.Value
	case "getmeta":
		e, err := cl.getEntry(req.CubeID)
		if err != nil {
			return fail(err)
		}
		resp.Value, resp.Found = e.meta[req.Key]
	case "stats":
		resp.Stats = cl.gatherStats()
	default:
		return fail(fmt.Errorf("%w %q (cluster coordinator)", cubeserver.ErrUnknownOp, req.Op))
	}
	return resp
}

// fetchRow locates the part holding global row r (parts are ordered by
// leading range, and global row order is part order) and forwards the
// read with the part-local index.
func (cl *Cluster) fetchRow(e *entry, r int) ([]float32, error) {
	if r < 0 || r >= e.totalRows() {
		return nil, fmt.Errorf("datacube: row %d out of range [0,%d)", r, e.totalRows())
	}
	if e.row != nil {
		return e.row, nil
	}
	base := 0
	for i := range e.parts {
		p := &e.parts[i]
		if r < base+p.rows {
			resp, err := cl.readPart(p, &cubeserver.Request{Op: "row", Row: r - base})
			if err != nil {
				return nil, err
			}
			return resp.Values[0], nil
		}
		base += p.rows
	}
	return nil, fmt.Errorf("datacube: row %d out of range [0,%d)", r, e.totalRows())
}

// gatherValues concatenates part payloads in global row order; parts
// are fetched concurrently and stitched back in part order. A
// coordinator-held row is answered from the catalog.
func (cl *Cluster) gatherValues(e *entry) ([][]float32, error) {
	if e.row != nil {
		return [][]float32{e.row}, nil
	}
	chunks := make([][][]float32, len(e.parts))
	err := forEachPart(len(e.parts), func(i int) error {
		resp, err := cl.readPart(&e.parts[i], &cubeserver.Request{Op: "values"})
		if err != nil {
			return err
		}
		chunks[i] = resp.Values
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]float32, 0, e.totalRows())
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}

// deleteEntry drops the catalog record and frees every replica's
// slice — at once, or at the last unpin when a running pipeline still
// reads the entry.
func (cl *Cluster) deleteEntry(e *entry) {
	delete(cl.cat, e.id)
	if e.pins > 0 {
		cl.unlisted[e] = struct{}{}
		return
	}
	cl.dropParts(e.parts)
}

// exportEntry writes the cube to a GNC1 file coordinator-side, after
// gathering the parts. Mirrors datacube's export conventions: the
// implicit dimension appears only when it is non-degenerate (or the
// cube is rowless).
func (cl *Cluster) exportEntry(e *entry, path string) error {
	vals, err := cl.gatherValues(e)
	if err != nil {
		return err
	}
	ds := ncdf.NewDataset()
	var dimNames []string
	for _, d := range e.explicit {
		if err := ds.AddDim(d.Name, d.Size); err != nil {
			return err
		}
		dimNames = append(dimNames, d.Name)
	}
	if e.implicit.Size > 1 || len(e.explicit) == 0 {
		if err := ds.AddDim(e.implicit.Name, e.implicit.Size); err != nil {
			return err
		}
		dimNames = append(dimNames, e.implicit.Name)
	}
	flat := make([]float32, 0, len(vals)*e.implicit.Size)
	for _, row := range vals {
		flat = append(flat, row...)
	}
	measure := e.measure
	if measure == "" {
		measure = "measure"
	}
	v, err := ds.AddVar(measure, dimNames, flat)
	if err != nil {
		return err
	}
	v.Attrs["cube_id"] = ncdf.String(e.id)
	v.Attrs["provenance"] = ncdf.String(fmt.Sprintf("cubecluster %d-shard gather", len(cl.shards)))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return ncdf.WriteFile(path, ds)
}

// gatherStats sums engine counters over the first live replica of each
// shard — the replicas that actually served this coordinator's reads.
func (cl *Cluster) gatherStats() datacube.Stats {
	var total datacube.Stats
	for s := range cl.shards {
		for rep := range cl.shards[s] {
			if cl.isDown(s, rep) {
				continue
			}
			tr := cl.shards[s][rep].tr
			resp, err := cl.send(s, tr, &cubeserver.Request{Op: "stats"})
			if err != nil {
				cl.markDown(s, rep, tr)
				continue
			}
			total.FileReads += resp.Stats.FileReads
			total.CellsProcessed += resp.Stats.CellsProcessed
			total.Ops += resp.Stats.Ops
			total.FragmentTasks += resp.Stats.FragmentTasks
			break
		}
	}
	return total
}
