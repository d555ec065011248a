package datacube

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ncdf"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(Config{Servers: 3, FragmentsPerCube: 5})
	t.Cleanup(e.Close)
	return e
}

// seqCube builds a cube whose value at (row, t) is row*100 + t.
func seqCube(t *testing.T, e *Engine, rows, n int) *Cube {
	t.Helper()
	c, err := e.NewCubeFromFunc("seq",
		[]Dimension{{Name: "cell", Size: rows}},
		Dimension{Name: "time", Size: n},
		func(row, tt int) float32 { return float32(row*100 + tt) })
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCubeFromFuncShape(t *testing.T) {
	e := newTestEngine(t)
	c := seqCube(t, e, 7, 4)
	if c.Rows() != 7 || c.ImplicitLen() != 4 {
		t.Fatalf("shape = %dx%d", c.Rows(), c.ImplicitLen())
	}
	if c.Fragments() != 5 {
		t.Fatalf("fragments = %d, want 5", c.Fragments())
	}
	row, err := c.Row(3)
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != 300 || row[3] != 303 {
		t.Fatalf("row 3 = %v", row)
	}
	if _, err := c.Row(9); err == nil {
		t.Fatal("out-of-range row accepted")
	}
}

// TestRowViewsShareStorage pins RowViews against Values: the same rows
// in the same order across fragment boundaries, each capacity-clipped,
// but read in place rather than copied.
func TestRowViewsShareStorage(t *testing.T) {
	e := newTestEngine(t)
	for _, shape := range [][2]int{{7, 4}, {3, 1}, {12, 9}} {
		c := seqCube(t, e, shape[0], shape[1])
		views, vals := c.RowViews(), c.Values()
		if !reflect.DeepEqual(views, vals) {
			t.Fatalf("%v: RowViews %v, Values %v", shape, views, vals)
		}
		for r, v := range views {
			if cap(v) != len(v) {
				t.Fatalf("%v: row %d view has cap %d > len %d", shape, r, cap(v), len(v))
			}
			if len(v) > 0 && &v[0] != &c.rowSlice(r)[0] {
				t.Fatalf("%v: row %d view is a copy, not the fragment's storage", shape, r)
			}
		}
	}
}

func TestNewCubeValidation(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.NewCubeFromFunc("m", nil, Dimension{Name: "t", Size: 0}, nil); err == nil {
		t.Fatal("zero implicit accepted")
	}
	if _, err := e.NewCubeFromFunc("m", []Dimension{{Name: "x", Size: -1}}, Dimension{Name: "t", Size: 1}, nil); err == nil {
		t.Fatal("negative explicit accepted")
	}
}

func TestEngineRegistryLifecycle(t *testing.T) {
	e := newTestEngine(t)
	c := seqCube(t, e, 2, 2)
	if got, err := e.Get(c.ID()); err != nil || got != c {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if ids := e.List(); len(ids) != 1 || ids[0] != c.ID() {
		t.Fatalf("List = %v", ids)
	}
	if e.MemoryBytes() != 2*2*4 {
		t.Fatalf("MemoryBytes = %d", e.MemoryBytes())
	}
	if err := c.Delete(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get(c.ID()); err == nil {
		t.Fatal("deleted cube still resolvable")
	}
	if err := e.Delete(c.ID()); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestApplyExpression(t *testing.T) {
	e := newTestEngine(t)
	c := seqCube(t, e, 3, 3)
	out, err := c.Apply("x*2+1")
	if err != nil {
		t.Fatal(err)
	}
	row, _ := out.Row(1)
	if row[0] != 201 || row[2] != 205 {
		t.Fatalf("applied row = %v", row)
	}
	if _, err := c.Apply("((("); err == nil {
		t.Fatal("bad expression accepted")
	}
}

func TestApplyPredicateMask(t *testing.T) {
	e := newTestEngine(t)
	c := seqCube(t, e, 2, 4)
	mask, err := c.Apply("x>101 ? 1 : 0")
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := mask.Row(0) // values 0..3: none >101
	r1, _ := mask.Row(1) // values 100..103: two >101
	if sum32(r0) != 0 || sum32(r1) != 2 {
		t.Fatalf("mask rows = %v %v", r0, r1)
	}
}

func sum32(xs []float32) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s
}

func TestReduceOps(t *testing.T) {
	e := newTestEngine(t)
	c := seqCube(t, e, 2, 4)
	max, err := c.Reduce("max")
	if err != nil {
		t.Fatal(err)
	}
	if max.ImplicitLen() != 1 {
		t.Fatalf("reduced len = %d", max.ImplicitLen())
	}
	r, _ := max.Row(1)
	if r[0] != 103 {
		t.Fatalf("max = %v", r)
	}
	if _, err := c.Reduce("nosuchop"); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestReduceGroupDailyMax(t *testing.T) {
	e := newTestEngine(t)
	// 8 values = 2 days × 4 six-hourly steps
	c, _ := e.NewCubeFromFunc("t",
		[]Dimension{{Name: "cell", Size: 1}},
		Dimension{Name: "time", Size: 8},
		func(_, tt int) float32 { return float32(tt % 5) })
	daily, err := c.ReduceGroup("max", 4)
	if err != nil {
		t.Fatal(err)
	}
	if daily.ImplicitLen() != 2 {
		t.Fatalf("daily len = %d", daily.ImplicitLen())
	}
	r, _ := daily.Row(0)
	if r[0] != 3 || r[1] != 4 { // steps 0..3 -> max 3; steps 4..7 -> values 4,0,1,2 -> 4
		t.Fatalf("daily maxima = %v", r)
	}
	if _, err := c.ReduceGroup("max", 3); err == nil {
		t.Fatal("non-dividing group accepted")
	}
	if _, err := c.ReduceGroup("max", 0); err == nil {
		t.Fatal("zero group accepted")
	}
}

func TestSubsetImplicit(t *testing.T) {
	e := newTestEngine(t)
	c := seqCube(t, e, 2, 6)
	s, err := c.Subset(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := s.Row(1)
	if len(r) != 3 || r[0] != 102 || r[2] != 104 {
		t.Fatalf("subset row = %v", r)
	}
	for _, bad := range [][2]int{{-1, 2}, {0, 7}, {3, 3}, {5, 2}} {
		if _, err := c.Subset(bad[0], bad[1]); err == nil {
			t.Fatalf("bad subset %v accepted", bad)
		}
	}
}

func TestSubsetRows(t *testing.T) {
	e := newTestEngine(t)
	c, _ := e.NewCubeFromFunc("m",
		[]Dimension{{Name: "lat", Size: 4}, {Name: "lon", Size: 3}},
		Dimension{Name: "time", Size: 2},
		func(row, tt int) float32 { return float32(row*10 + tt) })
	s, err := c.SubsetRows(1, 3) // lat rows 1..2 → rows 3..8
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 6 {
		t.Fatalf("rows = %d", s.Rows())
	}
	r, _ := s.Row(0)
	if r[0] != 30 {
		t.Fatalf("first row = %v", r)
	}
	dims := s.ExplicitDims()
	if dims[0].Size != 2 || dims[1].Size != 3 {
		t.Fatalf("dims = %v", dims)
	}
	if _, err := c.SubsetRows(3, 2); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestIntercubeOps(t *testing.T) {
	e := newTestEngine(t)
	a := seqCube(t, e, 2, 3)
	b, _ := a.Apply("x*0+2") // constant 2
	sub, err := a.Intercube(b, "sub")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := sub.Row(0)
	if r[0] != -2 || r[2] != 0 {
		t.Fatalf("sub = %v", r)
	}
	add, _ := a.Intercube(b, "add")
	r, _ = add.Row(0)
	if r[0] != 2 {
		t.Fatalf("add = %v", r)
	}
	mul, _ := a.Intercube(b, "mul")
	r, _ = mul.Row(0)
	if r[1] != 2 {
		t.Fatalf("mul = %v", r)
	}
	div, _ := b.Intercube(b, "div")
	r, _ = div.Row(0)
	if r[0] != 1 {
		t.Fatalf("div = %v", r)
	}
	if _, err := a.Intercube(b, "mod"); err == nil {
		t.Fatal("unknown op accepted")
	}
	tiny := seqCube(t, e, 1, 3)
	if _, err := a.Intercube(tiny, "add"); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestAggregateRows(t *testing.T) {
	e := newTestEngine(t)
	c := seqCube(t, e, 3, 2) // rows 0,100,200 at t=0
	agg, err := c.AggregateRows("avg")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Rows() != 1 {
		t.Fatalf("agg rows = %d", agg.Rows())
	}
	r, _ := agg.Row(0)
	if r[0] != 100 || r[1] != 101 {
		t.Fatalf("agg = %v", r)
	}
	if _, err := c.AggregateRows("nope"); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestAggregateTrailingZonalMeans(t *testing.T) {
	e := newTestEngine(t)
	// (lat=3, lon=4) cube, value = lat*10 + lon + t
	c, err := e.NewCubeFromFunc("T",
		[]Dimension{{Name: "lat", Size: 3}, {Name: "lon", Size: 4}},
		Dimension{Name: "time", Size: 2},
		func(row, tt int) float32 {
			lat, lon := row/4, row%4
			return float32(lat*10 + lon + tt)
		})
	if err != nil {
		t.Fatal(err)
	}
	zonal, err := c.AggregateTrailing("avg")
	if err != nil {
		t.Fatal(err)
	}
	if zonal.Rows() != 3 || zonal.ImplicitLen() != 2 {
		t.Fatalf("zonal shape = %dx%d", zonal.Rows(), zonal.ImplicitLen())
	}
	dims := zonal.ExplicitDims()
	if len(dims) != 1 || dims[0].Name != "lat" {
		t.Fatalf("zonal dims = %v", dims)
	}
	// zonal mean at lat 1, t 0: mean(10,11,12,13) = 11.5
	row, _ := zonal.Row(1)
	if row[0] != 11.5 || row[1] != 12.5 {
		t.Fatalf("zonal row 1 = %v", row)
	}
	zmax, err := c.AggregateTrailing("max")
	if err != nil {
		t.Fatal(err)
	}
	rmax, _ := zmax.Row(2)
	if rmax[0] != 23 { // lat2: max(20..23)
		t.Fatalf("zonal max = %v", rmax)
	}
	// single explicit dim rejected
	flat, _ := e.NewCubeFromFunc("x",
		[]Dimension{{Name: "cell", Size: 4}},
		Dimension{Name: "t", Size: 1},
		func(int, int) float32 { return 0 })
	if _, err := flat.AggregateTrailing("avg"); err == nil {
		t.Fatal("1-D explicit cube accepted")
	}
	if _, err := c.AggregateTrailing("nosuch"); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestScalar(t *testing.T) {
	e := newTestEngine(t)
	c := seqCube(t, e, 3, 2)
	if _, err := c.Scalar(); err == nil {
		t.Fatal("non-scalar cube accepted")
	}
	agg, _ := c.AggregateRows("avg")
	red, _ := agg.Reduce("avg")
	v, err := red.Scalar()
	if err != nil || v != 100.5 {
		t.Fatalf("scalar = %v, %v", v, err)
	}
}

func TestImportDatasetTransposesTimeMajor(t *testing.T) {
	e := newTestEngine(t)
	ds := ncdf.NewDataset()
	ds.AddDim("time", 2)
	ds.AddDim("lat", 2)
	ds.AddDim("lon", 3)
	// value = t*100 + cell
	data := make([]float32, 2*2*3)
	for tt := 0; tt < 2; tt++ {
		for cell := 0; cell < 6; cell++ {
			data[tt*6+cell] = float32(tt*100 + cell)
		}
	}
	ds.AddVar("TREFHT", []string{"time", "lat", "lon"}, data)
	c, err := e.ImportDataset(ds, "TREFHT", "time")
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows() != 6 || c.ImplicitLen() != 2 {
		t.Fatalf("shape = %dx%d", c.Rows(), c.ImplicitLen())
	}
	r, _ := c.Row(4)
	if r[0] != 4 || r[1] != 104 {
		t.Fatalf("row 4 = %v (transpose broken)", r)
	}
	dims := c.ExplicitDims()
	if dims[0].Name != "lat" || dims[1].Name != "lon" {
		t.Fatalf("explicit dims = %v", dims)
	}
	if _, err := e.ImportDataset(ds, "TREFHT", "depth"); err == nil {
		t.Fatal("missing implicit dim accepted")
	}
	if _, err := e.ImportDataset(ds, "GHOST", "time"); err == nil {
		t.Fatal("missing variable accepted")
	}
}

func writeDayFile(t *testing.T, dir string, day int, value float32) string {
	t.Helper()
	ds := ncdf.NewDataset()
	ds.AddDim("time", 2)
	ds.AddDim("lat", 2)
	ds.AddDim("lon", 2)
	data := make([]float32, 8)
	for i := range data {
		data[i] = value + float32(i)
	}
	ds.AddVar("T", []string{"time", "lat", "lon"}, data)
	path := filepath.Join(dir, "day"+string(rune('0'+day))+".nc")
	if err := ncdf.WriteFile(path, ds); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestImportFilesConcatenates(t *testing.T) {
	e := newTestEngine(t)
	dir := t.TempDir()
	p1 := writeDayFile(t, dir, 1, 0)
	p2 := writeDayFile(t, dir, 2, 100)
	c, err := e.ImportFiles([]string{p1, p2}, "T", "time")
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows() != 4 || c.ImplicitLen() != 4 {
		t.Fatalf("shape = %dx%d", c.Rows(), c.ImplicitLen())
	}
	r, _ := c.Row(0)
	// day1: t0 cell0 = 0, t1 cell0 = 4; day2: 100, 104
	want := []float32{0, 4, 100, 104}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("row 0 = %v, want %v", r, want)
		}
	}
	// temporary per-file cubes are cleaned up: only the result remains
	if ids := e.List(); len(ids) != 1 {
		t.Fatalf("resident cubes = %v", ids)
	}
	st := e.Stats()
	if st.FileReads != 2 {
		t.Fatalf("FileReads = %d, want 2", st.FileReads)
	}
	if _, err := e.ImportFiles(nil, "T", "time"); err == nil {
		t.Fatal("empty import accepted")
	}
	if _, err := e.ImportFiles([]string{filepath.Join(dir, "none.nc")}, "T", "time"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestConcatValidation(t *testing.T) {
	e := newTestEngine(t)
	a := seqCube(t, e, 2, 2)
	b := seqCube(t, e, 3, 2)
	if _, err := e.Concat([]*Cube{a, b}); err == nil {
		t.Fatal("row mismatch accepted")
	}
	if _, err := e.Concat(nil); err == nil {
		t.Fatal("empty concat accepted")
	}
}

func TestExportNCRoundTrip(t *testing.T) {
	e := newTestEngine(t)
	c, _ := e.NewCubeFromFunc("HWD",
		[]Dimension{{Name: "lat", Size: 2}, {Name: "lon", Size: 3}},
		Dimension{Name: "time", Size: 1},
		func(row, _ int) float32 { return float32(row) })
	c.SetMeta("index", "heat_wave_duration")
	path := filepath.Join(t.TempDir(), "out.nc")
	if err := c.ExportFile(path); err != nil {
		t.Fatal(err)
	}
	ds, err := ncdf.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ds.Var("HWD")
	if err != nil {
		t.Fatal(err)
	}
	// implicit size 1: exported dims are just lat, lon
	if len(v.Dims) != 2 || v.Dims[0] != "lat" {
		t.Fatalf("dims = %v", v.Dims)
	}
	if v.Data[5] != 5 {
		t.Fatalf("data = %v", v.Data)
	}
	if ds.Attrs["index"].S != "heat_wave_duration" {
		t.Fatalf("meta attr lost: %+v", ds.Attrs)
	}
	if !strings.HasPrefix(ds.Attrs["cube_id"].S, "cube-") {
		t.Fatalf("cube_id attr = %+v", ds.Attrs["cube_id"])
	}
}

func TestMetadata(t *testing.T) {
	e := newTestEngine(t)
	c := seqCube(t, e, 1, 1)
	if _, ok := c.Meta("k"); ok {
		t.Fatal("phantom meta")
	}
	c.SetMeta("k", "v")
	if v, ok := c.Meta("k"); !ok || v != "v" {
		t.Fatal("meta roundtrip failed")
	}
	if c.Measure() != "seq" || c.Description() == "" {
		t.Fatalf("measure/desc = %q %q", c.Measure(), c.Description())
	}
}

func TestStatsProgression(t *testing.T) {
	e := newTestEngine(t)
	c := seqCube(t, e, 4, 4)
	before := e.Stats()
	if _, err := c.Apply("x+1"); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.Ops != before.Ops+1 {
		t.Fatalf("ops %d -> %d", before.Ops, after.Ops)
	}
	if after.CellsProcessed <= before.CellsProcessed {
		t.Fatal("cells not counted")
	}
	if after.FragmentTasks <= before.FragmentTasks {
		t.Fatal("fragment tasks not counted")
	}
}

func TestEngineServersParallelismConfig(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close()
	if e.Servers() != 4 {
		t.Fatalf("default servers = %d", e.Servers())
	}
	e.Close() // idempotent
}

func TestFragmentationNeverExceedsRows(t *testing.T) {
	e := NewEngine(Config{Servers: 2, FragmentsPerCube: 50})
	defer e.Close()
	c, err := e.NewCubeFromFunc("m", []Dimension{{Name: "r", Size: 3}},
		Dimension{Name: "t", Size: 1}, func(int, int) float32 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if c.Fragments() != 3 {
		t.Fatalf("fragments = %d, want 3", c.Fragments())
	}
}

// Property: Apply then Reduce(sum) equals the direct sum of the
// transformed values, regardless of fragmentation and server count.
func TestFragmentationInvarianceProperty(t *testing.T) {
	f := func(rows, n, servers, frags uint8) bool {
		r := int(rows%6) + 1
		m := int(n%6) + 1
		e := NewEngine(Config{Servers: int(servers%4) + 1, FragmentsPerCube: int(frags%8) + 1})
		defer e.Close()
		c, err := e.NewCubeFromFunc("m", []Dimension{{Name: "r", Size: r}},
			Dimension{Name: "t", Size: m},
			func(row, tt int) float32 { return float32(row + tt) })
		if err != nil {
			return false
		}
		doubled, err := c.Apply("x*2")
		if err != nil {
			return false
		}
		sums, err := doubled.Reduce("sum")
		if err != nil {
			return false
		}
		for row := 0; row < r; row++ {
			want := 0
			for tt := 0; tt < m; tt++ {
				want += 2 * (row + tt)
			}
			got, _ := sums.Row(row)
			if float64(got[0]) != float64(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
