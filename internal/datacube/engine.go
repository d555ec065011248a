package datacube

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ncdf"
	"repro/internal/obs"
)

// Config sizes an Engine.
type Config struct {
	// Servers is the number of in-memory I/O servers (parallel fragment
	// executors); zero means 4. The paper's §4.2.2: "the number of
	// Ophidia computing components can be scaled up ... over multiple
	// nodes of the infrastructure to address more intensive workloads".
	Servers int
	// FragmentsPerCube is the default fragmentation of new cubes; zero
	// means 2× the server count.
	FragmentsPerCube int
	// FragmentLatency models the per-fragment storage/network access
	// time of a real distributed I/O server. Fragment tasks on distinct
	// servers overlap their latency, so operator time scales down with
	// the server count the way the real multi-node deployment does —
	// even on hosts without spare cores. Zero disables it.
	FragmentLatency time.Duration
	// PyramidLevels is the number of row-downsampled resolution tiers
	// each cube lazily maintains for tolerance-aware coarse-first
	// execution: level k halves the rows k times, so 3 levels give the
	// 2x/4x/8x pyramid. Zero means the default (3); negative disables
	// the pyramid entirely, making every tolerant plan run exact.
	PyramidLevels int
	// Metrics, when set, receives per-operator wall-time histograms and
	// cell/fragment throughput counters (datacube_* families).
	Metrics *obs.Registry
	// Tracer, when set, records one span per fused plan pass
	// (datacube.fused_pass) so operator fusion shows up on -trace
	// timelines. Nil disables tracing.
	Tracer *obs.Tracer
}

// ErrEngineClosed is returned by operators invoked after Engine.Close.
var ErrEngineClosed = errors.New("datacube: engine closed")

// ErrNotFound is returned by Get/Delete for unknown cube IDs. It is a
// sentinel so callers — in particular the cubeserver wire layer and the
// cubecluster failover coordinator — can distinguish "cube does not
// exist" from transport or engine-lifecycle failures with errors.Is.
var ErrNotFound = errors.New("datacube: cube not found")

// Stats counts engine activity; its deltas drive the paper's
// data-reuse experiment (C2).
type Stats struct {
	// FileReads counts storage read operations (one per file × variable
	// import).
	FileReads int64
	// CellsProcessed counts array elements touched by operators.
	CellsProcessed int64
	// Ops counts operator executions.
	Ops int64
	// FragmentTasks counts per-fragment work units dispatched.
	FragmentTasks int64
}

// Engine hosts datacubes in memory and executes operators over their
// fragments on a fixed pool of I/O servers (the Ophidia server +
// I/O-server deployment, collapsed into one process; package cubeserver
// adds the network front-end).
type Engine struct {
	cfg     Config
	mu      sync.Mutex
	cubes   map[string]*Cube
	nextID  int64
	servers []*ioServer
	closed  bool
	// inflight tracks operators that may still send fragment tasks;
	// Close waits for it before closing the server channels.
	inflight sync.WaitGroup
	met      *dcMetrics

	fileReads atomic.Int64
	cells     atomic.Int64
	ops       atomic.Int64
	fragTasks atomic.Int64
}

// ioServer executes fragment tasks serially, so total parallelism
// scales with the number of servers.
type ioServer struct {
	tasks chan func()
	done  chan struct{}
}

func newIOServer() *ioServer {
	s := &ioServer{tasks: make(chan func(), 64), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for t := range s.tasks {
			t()
		}
	}()
	return s
}

// NewEngine starts an engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	if cfg.Servers <= 0 {
		cfg.Servers = 4
	}
	if cfg.FragmentsPerCube <= 0 {
		cfg.FragmentsPerCube = 2 * cfg.Servers
	}
	if cfg.PyramidLevels == 0 {
		cfg.PyramidLevels = defaultPyramidLevels
	} else if cfg.PyramidLevels < 0 {
		cfg.PyramidLevels = 0 // disabled
	}
	e := &Engine{cfg: cfg, cubes: make(map[string]*Cube), met: newDCMetrics(cfg.Metrics)}
	for i := 0; i < cfg.Servers; i++ {
		e.servers = append(e.servers, newIOServer())
	}
	return e
}

// Close stops the I/O servers after draining in-flight operators.
// Operators invoked afterwards fail with ErrEngineClosed instead of
// panicking on the closed task channels.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	// Operators that passed the closed check have registered in
	// inflight; once they return, no further sends can happen and the
	// channels are safe to close.
	e.inflight.Wait()
	for _, s := range e.servers {
		close(s.tasks)
	}
	for _, s := range e.servers {
		<-s.done
	}
}

// Servers reports the configured parallelism.
func (e *Engine) Servers() int { return e.cfg.Servers }

// Closed reports whether Close has been called. The cubecluster
// in-process transport uses it to model a killed replica: operations
// against a closed engine fail like a dead server process would.
func (e *Engine) Closed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// addCells accounts processed array elements in both the Stats counter
// and the exported throughput metric.
func (e *Engine) addCells(n int64) {
	e.cells.Add(n)
	e.met.cells.Add(float64(n))
}

// Stats returns a snapshot of activity counters.
func (e *Engine) Stats() Stats {
	return Stats{
		FileReads:      e.fileReads.Load(),
		CellsProcessed: e.cells.Load(),
		Ops:            e.ops.Load(),
		FragmentTasks:  e.fragTasks.Load(),
	}
}

// List returns the IDs of all resident cubes, sorted.
func (e *Engine) List() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.cubes))
	for id := range e.cubes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Get returns the cube with the given ID.
func (e *Engine) Get(id string) (*Cube, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.cubes[id]
	if !ok {
		return nil, fmt.Errorf("%w: no cube %q", ErrNotFound, id)
	}
	return c, nil
}

// Delete removes a cube from the engine, freeing its memory.
func (e *Engine) Delete(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.cubes[id]
	if !ok {
		return fmt.Errorf("%w: no cube %q", ErrNotFound, id)
	}
	delete(e.cubes, id)
	for _, t := range c.builtTiers() {
		e.met.tierBytes.Add(-float64(t.bytes()))
	}
	return nil
}

// MemoryBytes reports the resident payload size across all cubes,
// including built pyramid tiers.
func (e *Engine) MemoryBytes() int64 {
	e.mu.Lock()
	cubes := make([]*Cube, 0, len(e.cubes))
	for _, c := range e.cubes {
		cubes = append(cubes, c)
	}
	e.mu.Unlock()
	var n int64
	for _, c := range cubes {
		n += c.Bytes()
	}
	return n
}

// Adopt re-binds an already registered cube under the public identity
// of another resident cube, releasing the previous holder of that
// identity. The cubeserver residency manager uses it to swap a cube's
// representation (demote to a coarse stand-in, re-promote to full
// fidelity) without changing the ID clients hold; in-flight operators
// keep their pointer to the old object, which stays internally valid
// until garbage collected.
func (e *Engine) Adopt(id string, c *Cube) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	old, ok := e.cubes[id]
	if !ok {
		return fmt.Errorf("%w: no cube %q", ErrNotFound, id)
	}
	if got, ok := e.cubes[c.id]; !ok || got != c {
		return fmt.Errorf("datacube: adopt: cube %q is not registered on this engine", c.id)
	}
	if c.id == id {
		return nil
	}
	delete(e.cubes, c.id)
	c.id = id
	e.cubes[id] = c
	// the displaced holder leaves the engine like a Delete would
	for _, t := range old.builtTiers() {
		e.met.tierBytes.Add(-float64(t.bytes()))
	}
	return nil
}

// register assigns an ID and stores the cube.
func (e *Engine) register(c *Cube, desc string) *Cube {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextID++
	c.id = fmt.Sprintf("cube-%d", e.nextID)
	c.desc = desc
	c.engine = e
	e.cubes[c.id] = c
	return c
}

// newCube allocates a fragmented cube with the given shape. Fragments
// are split over rows and assigned to servers round-robin.
func (e *Engine) newCube(explicit []Dimension, implicit Dimension) *Cube {
	rows := 1
	for _, d := range explicit {
		rows *= d.Size
	}
	nfrag := e.cfg.FragmentsPerCube
	if nfrag > rows {
		nfrag = rows
	}
	if nfrag < 1 {
		nfrag = 1
	}
	c := &Cube{
		explicit: append([]Dimension(nil), explicit...),
		implicit: implicit,
		rows:     rows,
	}
	base := rows / nfrag
	rem := rows % nfrag
	// one backing allocation for the whole cube, sliced per fragment:
	// fragments stay independently addressable but an operator costs one
	// allocation instead of one per fragment
	backing := make([]float32, rows*implicit.Size)
	start := 0
	for f := 0; f < nfrag; f++ {
		cnt := base
		if f < rem {
			cnt++
		}
		if cnt == 0 {
			continue
		}
		c.frags = append(c.frags, &fragment{
			rowStart: start,
			rowCount: cnt,
			data:     backing[start*implicit.Size : (start+cnt)*implicit.Size : (start+cnt)*implicit.Size],
			server:   f % e.cfg.Servers,
		})
		start += cnt
	}
	return c
}

// mapFragments runs fn over every fragment of c on the fragment's
// owning I/O server and waits for completion. All fragment errors are
// aggregated with errors.Join so a multi-fragment failure is fully
// reported, not reduced to one arbitrary member. op labels the
// operator's wall-time histogram.
func (e *Engine) mapFragments(op string, c *Cube, fn func(fr *fragment) error) error {
	return e.mapFragmentsIdx(op, c, func(_ int, fr *fragment) error { return fn(fr) })
}

// mapFragmentsIdx is mapFragments with the fragment's index passed to
// fn; fused multi-output passes use it to address the aligned fragments
// of sibling output cubes (all outputs of one pass share the same row
// partitioning).
func (e *Engine) mapFragmentsIdx(op string, c *Cube, fn func(i int, fr *fragment) error) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("%s: %w", op, ErrEngineClosed)
	}
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()

	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, len(c.frags))
	for i, fr := range c.frags {
		i, fr := i, fr
		wg.Add(1)
		e.fragTasks.Add(1)
		e.met.fragTasks.Inc()
		e.servers[fr.server].tasks <- func() {
			defer wg.Done()
			t0 := time.Now()
			if e.cfg.FragmentLatency > 0 {
				time.Sleep(e.cfg.FragmentLatency)
			}
			if err := fn(i, fr); err != nil {
				errCh <- fmt.Errorf("%s: rows [%d,%d): %w", op, fr.rowStart, fr.rowStart+fr.rowCount, err)
			}
			e.met.fragSeconds.Observe(time.Since(t0).Seconds())
		}
	}
	wg.Wait()
	close(errCh)
	var errs []error
	for err := range errCh {
		errs = append(errs, err)
	}
	e.met.opSeconds.With(op).Observe(time.Since(start).Seconds())
	return errors.Join(errs...)
}

// scatterTasks runs the given work items on the I/O servers
// round-robin and waits for completion, with the same lifecycle
// discipline as fragment fan-outs: operators that passed the closed
// check register in inflight so Close drains them before shutting the
// task channels, and all task errors are joined.
func (e *Engine) scatterTasks(op string, tasks []func() error) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("%s: %w", op, ErrEngineClosed)
	}
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()

	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, len(tasks))
	for i, task := range tasks {
		task := task
		wg.Add(1)
		e.fragTasks.Add(1)
		e.met.fragTasks.Inc()
		e.servers[i%len(e.servers)].tasks <- func() {
			defer wg.Done()
			t0 := time.Now()
			if e.cfg.FragmentLatency > 0 {
				time.Sleep(e.cfg.FragmentLatency)
			}
			if err := task(); err != nil {
				errCh <- fmt.Errorf("%s: %w", op, err)
			}
			e.met.fragSeconds.Observe(time.Since(t0).Seconds())
		}
	}
	wg.Wait()
	close(errCh)
	var errs []error
	for err := range errCh {
		errs = append(errs, err)
	}
	e.met.opSeconds.With(op).Observe(time.Since(start).Seconds())
	return errors.Join(errs...)
}

// NewCubeFromFunc materializes a cube from a generator function
// f(row, t). It is how the workflow builds the in-memory climatology
// baseline cube.
func (e *Engine) NewCubeFromFunc(measure string, explicit []Dimension, implicit Dimension, f func(row, t int) float32) (*Cube, error) {
	if implicit.Size <= 0 {
		return nil, fmt.Errorf("datacube: implicit dimension %q must be positive", implicit.Name)
	}
	for _, d := range explicit {
		if d.Size <= 0 {
			return nil, fmt.Errorf("datacube: dimension %q must be positive", d.Name)
		}
	}
	c := e.newCube(explicit, implicit)
	c.measure = measure
	err := e.mapFragments("from_func", c, func(fr *fragment) error {
		n := implicit.Size
		for r := 0; r < fr.rowCount; r++ {
			row := fr.rowStart + r
			for t := 0; t < n; t++ {
				fr.data[r*n+t] = f(row, t)
			}
		}
		e.addCells(int64(fr.rowCount * n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.ops.Add(1)
	return e.register(c, "from_func("+measure+")"), nil
}

// ImportDataset loads one variable of an in-memory dataset as a cube.
// implicitDim names the dimension that becomes the in-row array axis
// (typically "time"); the remaining dimensions, in their original
// order, become the explicit (fragmented) axes.
func (e *Engine) ImportDataset(ds *ncdf.Dataset, varName, implicitDim string) (*Cube, error) {
	v, err := ds.Var(varName)
	if err != nil {
		return nil, err
	}
	src, err := newImportSrc(ds, v, len(v.Data), implicitDim, func(off int, dst []float32) error {
		copy(dst, v.Data[off:])
		return nil
	})
	if err != nil {
		return nil, err
	}
	c, _, err := e.importSrcs([]importSrc{src}, varName, implicitDim, 0, 1)
	return c, err
}

// ImportFile loads one variable from a GNC1 file (one storage read).
func (e *Engine) ImportFile(path, varName, implicitDim string) (*Cube, error) {
	return e.ImportFiles([]string{path}, varName, implicitDim)
}

// ImportFiles loads the same variable from several files (e.g. one
// year of daily ESM output) concatenated along the implicit dimension,
// producing one cube whose rows are grid cells and whose in-row arrays
// are the full-period time series.
func (e *Engine) ImportFiles(paths []string, varName, implicitDim string) (*Cube, error) {
	c, _, err := e.ImportShard(paths, varName, implicitDim, 0, 1)
	return c, err
}

// ImportShard imports shard `shard` of `shards`: rows [shard·L/shards,
// (shard+1)·L/shards) of the leading explicit dimension, of length L.
// A variable without explicit dimensions cannot be split; it lands
// whole on shard 0, and found=false everywhere else, as for an empty
// slice (more shards than L).
//
// Every import is one copy: the headers size the cube once, and each
// file's values are decoded straight into its slot of the implicit
// axis, reading only the bytes of the rows kept. Each file is opened
// once and counts as one storage read once its variable is found.
//
// All of an import's files stay open until it returns, so one import
// holds one descriptor per path, and imports running at once add up: a
// year of daily files on four in-process shards holds 4 × 365. The Go
// runtime raises the soft RLIMIT_NOFILE to the hard limit at start;
// the process needs that limit to cover its concurrent imports.
func (e *Engine) ImportShard(paths []string, varName, implicitDim string, shard, shards int) (*Cube, bool, error) {
	if len(paths) == 0 {
		return nil, false, fmt.Errorf("datacube: no files to import")
	}
	srcs := make([]importSrc, 0, len(paths))
	for _, p := range paths {
		f, err := ncdf.Open(p)
		if err != nil {
			return nil, false, fmt.Errorf("datacube: import %s: %w", p, err)
		}
		defer f.Close()
		v, i, n, err := f.Lookup(varName)
		if err == nil {
			e.fileReads.Add(1)
			e.met.fileReads.Inc()
			var s importSrc
			s, err = newImportSrc(f.Header, v, n, implicitDim, func(off int, dst []float32) error {
				return f.ReadRange(i, off, dst)
			})
			srcs = append(srcs, s)
		}
		if err != nil {
			return nil, false, fmt.Errorf("datacube: import %s: %w", p, err)
		}
	}
	return e.importSrcs(srcs, varName, implicitDim, shard, shards)
}

// importSrc is one source of an import, read by value range. Its
// variable's implicit axis, of length t, splits the layout into
// outer × t × inner: row o·inner+i holds the values (o, ·, i). slot is
// the offset of its values along the cube's implicit axis.
type importSrc struct {
	read                  func(off int, dst []float32) error
	explicit              []Dimension
	outer, t, inner, slot int
}

// newImportSrc resolves the layout of variable v of ds, which holds n
// values: its dimensions must describe exactly those n, so that nothing
// is sized from dimensions the data does not fill.
func newImportSrc(ds *ncdf.Dataset, v *ncdf.Variable, n int, implicitDim string, read func(int, []float32) error) (importSrc, error) {
	shape, err := ds.Shape(v)
	if err != nil {
		return importSrc{}, err
	}
	s := importSrc{read: read, outer: 1, t: -1, inner: 1}
	cells := 1
	for i, d := range shape {
		if d <= 0 || cells > n/d {
			cells = -1
			break
		}
		cells *= d
		switch {
		case s.t < 0 && v.Dims[i] == implicitDim:
			s.t = d
			continue
		case s.t < 0:
			s.outer *= d
		default:
			s.inner *= d
		}
		s.explicit = append(s.explicit, Dimension{Name: v.Dims[i], Size: d})
	}
	if cells != n {
		return s, fmt.Errorf("datacube: variable %q has %d values, dims %v imply otherwise", v.Name, n, shape)
	}
	if s.t < 0 {
		return s, fmt.Errorf("datacube: variable %q has no dimension %q", v.Name, implicitDim)
	}
	return s, nil
}

// importSrcs builds the cube of the given shard from sources that agree
// on their rows, concatenated along the implicit axis in order: the cube
// is sized once and each source decodes straight into its slot.
func (e *Engine) importSrcs(srcs []importSrc, varName, implicitDim string, shard, shards int) (*Cube, bool, error) {
	if shards <= 0 || shard < 0 || shard >= shards {
		return nil, false, fmt.Errorf("datacube: shard %d of %d out of range", shard, shards)
	}
	explicit := srcs[0].explicit
	rows, total := srcs[0].outer*srcs[0].inner, 0
	for i := range srcs {
		if r := srcs[i].outer * srcs[i].inner; r != rows {
			return nil, false, fmt.Errorf("datacube: import shape mismatch: %d vs %d rows", r, rows)
		}
		srcs[i].slot = total
		total += srcs[i].t
	}
	first := 0 // first kept row, in the sources' row numbering
	if len(explicit) == 0 {
		if shard != 0 {
			return nil, false, nil
		}
	} else {
		l := explicit[0].Size
		lo, hi := shard*l/shards, (shard+1)*l/shards
		if lo >= hi {
			return nil, false, nil
		}
		first = lo * (rows / l)
		explicit[0].Size = hi - lo
	}
	c := e.newCube(explicit, Dimension{Name: implicitDim, Size: total})
	c.measure = varName
	err := e.mapFragments("import", c, func(fr *fragment) error {
		r0 := first + fr.rowStart
		for i := range srcs {
			if err := srcs[i].decode(e, fr.data, r0, r0+fr.rowCount, total); err != nil {
				return err
			}
		}
		e.addCells(int64(fr.rowCount * total))
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	e.ops.Add(1)
	return e.register(c, "import("+varName+")"), true, nil
}

// importTile is the float count of the scratch tile a time-first source
// is transposed through.
const importTile = 1 << 14

// decode fills rows [r0, r1) of the source's row numbering into dst,
// n values per row, at the source's slot.
func (s *importSrc) decode(e *Engine, dst []float32, r0, r1, n int) error {
	if s.inner == 1 {
		// (…, implicit) layout: each row's values are one run on disk,
		// and for a lone source so are all the rows
		if s.t == n {
			return s.read(r0*s.t, dst)
		}
		for r := r0; r < r1; r++ {
			if err := s.read(r*s.t, dst[(r-r0)*n+s.slot:][:s.t]); err != nil {
				return err
			}
		}
		return nil
	}
	// the implicit axis is not last: each outer slab is a t × inner
	// matrix whose columns are rows, read one time step at a time and
	// transposed tile by tile
	sb := e.getScratch(importTile)
	defer e.putScratch(sb)
	for o := r0 / s.inner; o*s.inner < r1; o++ {
		i0, i1 := max(r0-o*s.inner, 0), min(r1-o*s.inner, s.inner)
		for b := i0; b < i1; b += importTile {
			w := min(importTile, i1-b) // rows per tile
			tt := max(1, importTile/w) // time steps per tile
			for t0 := 0; t0 < s.t; t0 += tt {
				m := min(tt, s.t-t0)
				for k := 0; k < m; k++ {
					if err := s.read((o*s.t+t0+k)*s.inner+b, sb.buf[k*w:(k+1)*w]); err != nil {
						return err
					}
				}
				for i := 0; i < w; i++ {
					row := dst[(o*s.inner+b+i-r0)*n+s.slot+t0:][:m]
					for k := range row {
						row[k] = sb.buf[k*w+i]
					}
				}
			}
		}
	}
	return nil
}

// Concat joins cubes with identical explicit shape along the implicit
// axis, in argument order.
func (e *Engine) Concat(cubes []*Cube) (*Cube, error) {
	if len(cubes) == 0 {
		return nil, fmt.Errorf("datacube: nothing to concat")
	}
	first := cubes[0]
	total := 0
	for _, c := range cubes {
		if c.rows != first.rows {
			return nil, fmt.Errorf("datacube: concat shape mismatch: %d vs %d rows", c.rows, first.rows)
		}
		total += c.implicit.Size
	}
	out := e.newCube(first.explicit, Dimension{Name: first.implicit.Name, Size: total})
	out.measure = first.measure
	// offsets of each input along the implicit axis
	offsets := make([]int, len(cubes))
	off := 0
	for i, c := range cubes {
		offsets[i] = off
		off += c.implicit.Size
	}
	err := e.mapFragments("concat", out, func(fr *fragment) error {
		n := total
		for r := 0; r < fr.rowCount; r++ {
			row := fr.rowStart + r
			for ci, c := range cubes {
				src := c.rowSlice(row)
				copy(fr.data[r*n+offsets[ci]:r*n+offsets[ci]+len(src)], src)
			}
		}
		e.addCells(int64(fr.rowCount * n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.ops.Add(1)
	return e.register(out, "concat"), nil
}
