package datacube

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ncdf"
)

// Dimension is a named axis of a cube.
type Dimension struct {
	Name string
	Size int
}

// fragment is a contiguous block of rows hosted by one I/O server.
type fragment struct {
	rowStart, rowCount int
	data               []float32 // rowCount × implicitSize, row-major
	server             int
}

// Cube is an immutable datacube: rows indexed by the explicit
// dimensions (row-major), each row holding an array over the implicit
// dimension. Operators return new cubes; source cubes stay resident in
// memory until deleted, enabling reuse across pipelines.
type Cube struct {
	id       string
	desc     string
	measure  string
	engine   *Engine
	explicit []Dimension
	implicit Dimension
	rows     int
	frags    []*fragment
	// metadata: the first key lives inline (metaK/metaV); meta is
	// allocated only once a second distinct key arrives.
	metaK, metaV string
	meta         map[string]string

	// resolution pyramid (pyramid.go): built lazily on first tolerant
	// access under tierOnce; tiersOK publishes the result so byte
	// accounting can read it without forcing a build.
	tierOnce sync.Once
	tiersOK  atomic.Bool
	tiers    []tier
}

// ID returns the cube's engine-assigned identifier (Ophidia's PID).
func (c *Cube) ID() string { return c.id }

// Measure returns the physical variable name the cube carries.
func (c *Cube) Measure() string { return c.measure }

// SetMeasure renames the cube's variable, e.g. after an index pipeline
// turns a temperature cube into a derived indicator.
func (c *Cube) SetMeasure(name string) { c.measure = name }

// Description returns the provenance string of the producing operator.
func (c *Cube) Description() string { return c.desc }

// Rows returns the number of explicit-index rows.
func (c *Cube) Rows() int { return c.rows }

// ImplicitLen returns the in-row array length.
func (c *Cube) ImplicitLen() int { return c.implicit.Size }

// ExplicitDims returns a copy of the explicit dimensions.
func (c *Cube) ExplicitDims() []Dimension {
	return append([]Dimension(nil), c.explicit...)
}

// ImplicitDim returns the implicit dimension.
func (c *Cube) ImplicitDim() Dimension { return c.implicit }

// Fragments reports the fragment count.
func (c *Cube) Fragments() int { return len(c.frags) }

// SetMeta attaches a metadata key/value (Ophidia metadata management).
// The first key is stored inline; the map is only allocated when a cube
// carries more than one key, since index pipelines tag every output
// cube with exactly one entry.
func (c *Cube) SetMeta(k, v string) {
	if c.meta == nil && (c.metaK == "" || c.metaK == k) {
		c.metaK, c.metaV = k, v
		return
	}
	if c.meta == nil {
		c.meta = map[string]string{c.metaK: c.metaV}
	}
	c.meta[k] = v
}

// Meta reads a metadata value.
func (c *Cube) Meta(k string) (string, bool) {
	if c.meta == nil {
		if k != "" && k == c.metaK {
			return c.metaV, true
		}
		return "", false
	}
	v, ok := c.meta[k]
	return v, ok
}

// rowSlice returns the backing slice of one row (no copy).
func (c *Cube) rowSlice(row int) []float32 {
	for _, fr := range c.frags {
		if row >= fr.rowStart && row < fr.rowStart+fr.rowCount {
			n := c.implicit.Size
			off := (row - fr.rowStart) * n
			return fr.data[off : off+n]
		}
	}
	return nil
}

// Row returns a copy of one row's array.
func (c *Cube) Row(row int) ([]float32, error) {
	if row < 0 || row >= c.rows {
		return nil, fmt.Errorf("datacube: row %d out of range [0,%d)", row, c.rows)
	}
	src := c.rowSlice(row)
	out := make([]float32, len(src))
	copy(out, src)
	return out, nil
}

// Values returns a full copy of the cube as [row][t]. All rows share
// one backing allocation (each row slice is capacity-clipped, so
// appending to one cannot clobber its neighbor).
func (c *Cube) Values() [][]float32 {
	n := c.implicit.Size
	flat := make([]float32, c.rows*n)
	for _, fr := range c.frags {
		copy(flat[fr.rowStart*n:], fr.data)
	}
	out := make([][]float32, c.rows)
	for r := 0; r < c.rows; r++ {
		out[r] = flat[r*n : (r+1)*n : (r+1)*n]
	}
	return out
}

// RowViews returns the cube as [row][t] like Values, but copies no
// payload: each row is a capacity-clipped view of the fragment that
// holds it. A registered cube is immutable (operators write only into
// their fresh output before registering it), so the views keep their
// values for as long as they are held. They are read-only: writing
// through one corrupts the cube.
func (c *Cube) RowViews() [][]float32 {
	n := c.implicit.Size
	out := make([][]float32, c.rows)
	for _, fr := range c.frags {
		for r := 0; r < fr.rowCount; r++ {
			out[fr.rowStart+r] = fr.data[r*n : (r+1)*n : (r+1)*n]
		}
	}
	return out
}

// CopyRow copies one row's array into dst without allocating and
// reports how many values were written (min of len(dst) and the
// implicit length). Hot readers — viz map rendering, per-cell index
// export — reuse one buffer across rows instead of paying Row's
// per-call allocation.
func (c *Cube) CopyRow(dst []float32, row int) (int, error) {
	if row < 0 || row >= c.rows {
		return 0, fmt.Errorf("datacube: row %d out of range [0,%d)", row, c.rows)
	}
	return copy(dst, c.rowSlice(row)), nil
}

// Scalar returns the single value of a 1×1 cube.
func (c *Cube) Scalar() (float64, error) {
	if c.rows != 1 || c.implicit.Size != 1 {
		return 0, fmt.Errorf("datacube: cube is %d×%d, not scalar", c.rows, c.implicit.Size)
	}
	return float64(c.rowSlice(0)[0]), nil
}

// sameShape verifies two cubes align for intercube operations.
func (c *Cube) sameShape(o *Cube) error {
	if c.rows != o.rows || c.implicit.Size != o.implicit.Size {
		return fmt.Errorf("datacube: shape mismatch: %dx%d vs %dx%d",
			c.rows, c.implicit.Size, o.rows, o.implicit.Size)
	}
	return nil
}

// Apply evaluates an elementwise expression over x (every stored value)
// and returns the resulting cube — Ophidia's oph_apply/oph_predicate.
func (c *Cube) Apply(exprSrc string) (*Cube, error) {
	expr, err := compileCached(exprSrc)
	if err != nil {
		return nil, err
	}
	e := c.engine
	out := e.newCube(c.explicit, c.implicit)
	out.measure = c.measure
	err = e.mapFragments("apply", out, func(fr *fragment) error {
		n := c.implicit.Size
		for r := 0; r < fr.rowCount; r++ {
			src := c.rowSlice(fr.rowStart + r)
			dst := fr.data[r*n : (r+1)*n]
			for t, v := range src {
				dst[t] = float32(expr.Eval(float64(v)))
			}
		}
		e.addCells(int64(fr.rowCount * n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.ops.Add(1)
	return e.register(out, fmt.Sprintf("apply(%s)", exprSrc)), nil
}

// Reduce collapses the implicit axis to one value per row with a named
// row operation — Ophidia's oph_reduce.
func (c *Cube) Reduce(op string, params ...float64) (*Cube, error) {
	return c.ReduceGroup(op, c.implicit.Size, params...)
}

// ReduceGroup reduces consecutive groups of `group` values along the
// implicit axis (oph_reduce2 with a concept level): e.g. group=4 turns
// 6-hourly steps into daily statistics. The implicit size must be a
// multiple of group.
func (c *Cube) ReduceGroup(op string, group int, params ...float64) (*Cube, error) {
	kern, ok := bindRowKernel[float32](op, params)
	if !ok {
		return nil, fmt.Errorf("datacube: unknown row op %q (have %v)", op, RowOpNames())
	}
	if group <= 0 || c.implicit.Size%group != 0 {
		return nil, fmt.Errorf("datacube: group %d does not divide implicit length %d", group, c.implicit.Size)
	}
	e := c.engine
	outLen := c.implicit.Size / group
	out := e.newCube(c.explicit, Dimension{Name: c.implicit.Name, Size: outLen})
	out.measure = c.measure
	err := e.mapFragments("reduce", out, func(fr *fragment) error {
		for r := 0; r < fr.rowCount; r++ {
			kern(fr.data[r*outLen:(r+1)*outLen], c.rowSlice(fr.rowStart+r), group)
		}
		e.addCells(int64(fr.rowCount * c.implicit.Size))
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.ops.Add(1)
	return e.register(out, fmt.Sprintf("reduce(%s,group=%d)", op, group)), nil
}

// ReduceStride reduces interleaved groups along the implicit axis:
// output position k aggregates the elements at positions k, k+stride,
// k+2·stride, …. With a year-major concatenation of equal-length years
// (y0d0…y0dN, y1d0…), stride = days-per-year computes a per-day-of-year
// statistic across years — the percentile-climatology primitive of the
// ETCCDI indices the paper cites for wave definitions.
func (c *Cube) ReduceStride(op string, stride int, params ...float64) (*Cube, error) {
	kern, ok := bindRowKernel[float32](op, params)
	if !ok {
		return nil, fmt.Errorf("datacube: unknown row op %q (have %v)", op, RowOpNames())
	}
	if stride <= 0 || c.implicit.Size%stride != 0 {
		return nil, fmt.Errorf("datacube: stride %d does not divide implicit length %d", stride, c.implicit.Size)
	}
	e := c.engine
	groups := c.implicit.Size / stride
	out := e.newCube(c.explicit, Dimension{Name: c.implicit.Name, Size: stride})
	out.measure = c.measure
	err := e.mapFragments("reducestride", out, func(fr *fragment) error {
		sb := e.getScratch(c.implicit.Size)
		defer e.putScratch(sb)
		for r := 0; r < fr.rowCount; r++ {
			transposeStride(sb.buf, c.rowSlice(fr.rowStart+r), stride)
			kern(fr.data[r*stride:(r+1)*stride], sb.buf, groups)
		}
		e.addCells(int64(fr.rowCount * c.implicit.Size))
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.ops.Add(1)
	return e.register(out, fmt.Sprintf("reducestride(%s,%d)", op, stride)), nil
}

// transposeStride regroups one row for a strided reduction: the values
// at positions k, k+stride, k+2·stride, … become the k-th contiguous
// group of dst. One sequential pass over src; gathering each output
// position with stride-sized jumps instead re-streams the row `stride`
// times and thrashes the cache for wide strides (e.g. 365-day years).
func transposeStride(dst, src []float32, stride int) {
	groups := len(src) / stride
	for g := 0; g < groups; g++ {
		base := g * stride
		for k := 0; k < stride; k++ {
			dst[k*groups+g] = src[base+k]
		}
	}
}

// Subset selects the half-open range [lo,hi) along the implicit axis —
// oph_subset on the array dimension.
func (c *Cube) Subset(lo, hi int) (*Cube, error) {
	if lo < 0 || hi > c.implicit.Size || lo >= hi {
		return nil, fmt.Errorf("datacube: subset [%d,%d) out of range [0,%d)", lo, hi, c.implicit.Size)
	}
	e := c.engine
	out := e.newCube(c.explicit, Dimension{Name: c.implicit.Name, Size: hi - lo})
	out.measure = c.measure
	n := hi - lo
	err := e.mapFragments("subset", out, func(fr *fragment) error {
		for r := 0; r < fr.rowCount; r++ {
			src := c.rowSlice(fr.rowStart + r)
			copy(fr.data[r*n:(r+1)*n], src[lo:hi])
		}
		e.addCells(int64(fr.rowCount * n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.ops.Add(1)
	return e.register(out, fmt.Sprintf("subset[%d:%d]", lo, hi)), nil
}

// SubsetRows selects the half-open row range [lo,hi) along the leading
// explicit dimension, which must evenly decompose (contiguous rows).
func (c *Cube) SubsetRows(lo, hi int) (*Cube, error) {
	if len(c.explicit) == 0 {
		return nil, fmt.Errorf("datacube: cube has no explicit dimensions")
	}
	lead := c.explicit[0]
	if lo < 0 || hi > lead.Size || lo >= hi {
		return nil, fmt.Errorf("datacube: row subset [%d,%d) out of range [0,%d)", lo, hi, lead.Size)
	}
	rowsPer := c.rows / lead.Size
	e := c.engine
	newExp := append([]Dimension(nil), c.explicit...)
	newExp[0] = Dimension{Name: lead.Name, Size: hi - lo}
	out := e.newCube(newExp, c.implicit)
	out.measure = c.measure
	n := c.implicit.Size
	base := lo * rowsPer
	err := e.mapFragments("subsetrows", out, func(fr *fragment) error {
		for r := 0; r < fr.rowCount; r++ {
			src := c.rowSlice(base + fr.rowStart + r)
			copy(fr.data[r*n:(r+1)*n], src)
		}
		e.addCells(int64(fr.rowCount * n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.ops.Add(1)
	return e.register(out, fmt.Sprintf("subsetrows[%d:%d]", lo, hi)), nil
}

// Intercube combines two aligned cubes elementwise — oph_intercube.
// op is one of "add", "sub", "mul", "div".
func (c *Cube) Intercube(o *Cube, op string) (*Cube, error) {
	if err := c.sameShape(o); err != nil {
		return nil, err
	}
	f, err := intercubeFunc(op)
	if err != nil {
		return nil, err
	}
	e := c.engine
	out := e.newCube(c.explicit, c.implicit)
	out.measure = c.measure
	n := c.implicit.Size
	err = e.mapFragments("intercube", out, func(fr *fragment) error {
		for r := 0; r < fr.rowCount; r++ {
			row := fr.rowStart + r
			f(fr.data[r*n:(r+1)*n], c.rowSlice(row), o.rowSlice(row))
		}
		e.addCells(int64(fr.rowCount * n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.ops.Add(1)
	return e.register(out, "intercube("+op+")"), nil
}

// columnTile bounds (in floats) the scratch a column reduction
// transposes into. Measured on AggregateRows("avg") over 4608 × 360 in
// two fragments (2304 rows each): 9.2 ms at 1<<14, where a tile is only
// 7 positions — less than a cache line — of every row, 6.4 at 1<<15 and
// 1<<16, 7.3 at 1<<17; at 256 rows per fragment all four read 7.3–7.9.
const columnTile = 1 << 15

// columnScratch sizes reduceColumns' scratch for w rows of n positions.
func columnScratch(w, n int) int { return w * min(n, max(1, columnTile/w)) }

// reduceColumns collapses w rows into one: dst[t] is the kernel's value
// over row(0)[t] … row(w-1)[t], in that order. Rows are transposed tile
// by tile into tb (columnScratch floats) so that every column becomes
// one contiguous group and a whole tile is one kernel call.
func reduceColumns[D float32 | float64](kern rowKernel[D], dst []D, w int, row func(int) []float32, tb []float32) {
	tile := len(tb) / w
	for t0 := 0; t0 < len(dst); t0 += tile {
		t1 := min(t0+tile, len(dst))
		for r := 0; r < w; r++ {
			for k, v := range row(r)[t0:t1] {
				tb[k*w+r] = v
			}
		}
		kern(dst[t0:t1], tb[:(t1-t0)*w], w)
	}
}

// AggregateTrailing collapses the trailing explicit dimension by
// applying the named op across its positions at each implicit index:
// on a (lat, lon) cube this yields zonal statistics per latitude, the
// classic climate diagnostic. The cube must have at least two explicit
// dimensions.
func (c *Cube) AggregateTrailing(op string, params ...float64) (*Cube, error) {
	kern, ok := bindRowKernel[float32](op, params)
	if !ok {
		return nil, fmt.Errorf("datacube: unknown row op %q", op)
	}
	if len(c.explicit) < 2 {
		return nil, fmt.Errorf("datacube: need ≥2 explicit dimensions, have %d", len(c.explicit))
	}
	trail := c.explicit[len(c.explicit)-1]
	lead := c.explicit[:len(c.explicit)-1]
	e := c.engine
	n := c.implicit.Size
	out := e.newCube(lead, c.implicit)
	out.measure = c.measure
	err := e.mapFragments("aggtrailing", out, func(fr *fragment) error {
		sb := e.getScratch(columnScratch(trail.Size, n))
		defer e.putScratch(sb)
		lo := 0 // first of the rows the current output row collapses
		row := func(k int) []float32 { return c.rowSlice(lo + k) }
		for r := 0; r < fr.rowCount; r++ {
			lo = (fr.rowStart + r) * trail.Size
			reduceColumns(kern, fr.data[r*n:(r+1)*n], trail.Size, row, sb.buf)
		}
		e.addCells(int64(fr.rowCount * n * trail.Size))
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.ops.Add(1)
	return e.register(out, fmt.Sprintf("aggtrailing(%s,%s)", op, trail.Name)), nil
}

// AggregateRows collapses all rows into a single row by applying the
// named op across rows at each implicit position (spatial aggregation).
func (c *Cube) AggregateRows(op string, params ...float64) (*Cube, error) {
	kern, ok := bindRowKernel[float32](op, params)
	if !ok {
		return nil, fmt.Errorf("datacube: unknown row op %q", op)
	}
	e := c.engine
	n := c.implicit.Size
	out := e.newCube([]Dimension{{Name: "all", Size: 1}}, c.implicit)
	out.measure = c.measure
	// small output: one fragment, so one server does the whole collapse
	err := e.mapFragments("aggrows", out, func(fr *fragment) error {
		sb := e.getScratch(columnScratch(c.rows, n))
		defer e.putScratch(sb)
		reduceColumns(kern, fr.data, c.rows, c.rowSlice, sb.buf)
		e.addCells(int64(c.rows * n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.ops.Add(1)
	return e.register(out, "aggrows("+op+")"), nil
}

// ExportNC materializes the cube as a GNC1 dataset with its explicit
// dimensions plus the implicit one as the trailing axis —
// oph_exportnc2 in Listing 1.
func (c *Cube) ExportNC() (*ncdf.Dataset, error) {
	ds := ncdf.NewDataset()
	var dims []string
	for _, d := range c.explicit {
		if err := ds.AddDim(d.Name, d.Size); err != nil {
			return nil, err
		}
		dims = append(dims, d.Name)
	}
	if c.implicit.Size > 1 || len(c.explicit) == 0 {
		if err := ds.AddDim(c.implicit.Name, c.implicit.Size); err != nil {
			return nil, err
		}
		dims = append(dims, c.implicit.Name)
	}
	n := c.implicit.Size
	data := make([]float32, c.rows*n)
	for r := 0; r < c.rows; r++ {
		copy(data[r*n:(r+1)*n], c.rowSlice(r))
	}
	name := c.measure
	if name == "" {
		name = "measure"
	}
	if _, err := ds.AddVar(name, dims, data); err != nil {
		return nil, err
	}
	if c.meta == nil {
		if c.metaK != "" {
			ds.Attrs[c.metaK] = ncdf.String(c.metaV)
		}
	} else {
		for k, v := range c.meta {
			ds.Attrs[k] = ncdf.String(v)
		}
	}
	ds.Attrs["cube_id"] = ncdf.String(c.id)
	ds.Attrs["provenance"] = ncdf.String(c.desc)
	return ds, nil
}

// ExportFile writes ExportNC output to path.
func (c *Cube) ExportFile(path string) error {
	ds, err := c.ExportNC()
	if err != nil {
		return err
	}
	return ncdf.WriteFile(path, ds)
}

// Delete removes the cube from its engine (Listing 1's Mask.delete()).
func (c *Cube) Delete() error { return c.engine.Delete(c.id) }
