package datacube

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/ncdf"
)

// importLayouts are the on-disk orders the import path must handle:
// implicit axis last (row values contiguous), first (the ESM's daily
// files), in the middle, and alone (a rowless variable).
var importLayouts = []string{"lat,lon,time", "time,lat,lon", "lat,time,lon", "time"}

// writeImportFile writes variable T over the named dims (lat 5, lon 3,
// time steps) behind a decoy variable, so T's payload starts mid-file.
// Values are seeded noise laced with NaN payloads, ±0 and ±Inf.
func writeImportFile(t testing.TB, path, layout string, steps int, seed int64) {
	t.Helper()
	size := map[string]int{"lat": 5, "lon": 3, "time": steps}
	ds := ncdf.NewDataset()
	dims := strings.Split(layout, ",")
	n := 1
	for _, d := range dims {
		if err := ds.AddDim(d, size[d]); err != nil {
			t.Fatal(err)
		}
		n *= size[d]
	}
	special := []float32{float32(math.NaN()), math.Float32frombits(0x7fc00001), float32(math.Inf(1)),
		float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 0}
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n)
	for i := range data {
		if rng.Intn(5) == 0 {
			data[i] = special[rng.Intn(len(special))]
		} else {
			data[i] = float32(rng.NormFloat64() * 50)
		}
	}
	if _, err := ds.AddVar("DECOY", dims, make([]float32, n)); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.AddVar("T", dims, data); err != nil {
		t.Fatal(err)
	}
	if err := ncdf.WriteFile(path, ds); err != nil {
		t.Fatal(err)
	}
}

// concatImportOracle is the import path ImportFiles replaced, kept as
// its reference: decode each file whole, import it as a cube of its
// own, then concatenate the per-file cubes.
func concatImportOracle(e *Engine, paths []string, varName, implicitDim string) (*Cube, error) {
	parts := make([]*Cube, 0, len(paths))
	defer func() {
		for _, p := range parts {
			_ = p.Delete()
		}
	}()
	for _, p := range paths {
		ds, err := ncdf.ReadFile(p)
		if err != nil {
			return nil, err
		}
		c, err := e.ImportDataset(ds, varName, implicitDim)
		if err != nil {
			return nil, err
		}
		parts = append(parts, c)
	}
	return e.Concat(parts)
}

// sameCube fails unless got and want agree in shape, measure and every
// value's bit pattern.
func sameCube(t *testing.T, what string, got, want *Cube) {
	t.Helper()
	if fmt.Sprint(got.ExplicitDims(), got.ImplicitDim(), got.Measure()) != fmt.Sprint(want.ExplicitDims(), want.ImplicitDim(), want.Measure()) {
		t.Fatalf("%s: shape %v %v %q, want %v %v %q", what, got.ExplicitDims(), got.ImplicitDim(), got.Measure(),
			want.ExplicitDims(), want.ImplicitDim(), want.Measure())
	}
	gv, wv := got.Values(), want.Values()
	for r := range wv {
		for k := range wv[r] {
			if math.Float32bits(gv[r][k]) != math.Float32bits(wv[r][k]) {
				t.Fatalf("%s: row %d value %d = %x, want %x", what, r, k, math.Float32bits(gv[r][k]), math.Float32bits(wv[r][k]))
			}
		}
	}
}

// importFixture writes one file per entry of steps in the given layout.
func importFixture(t *testing.T, layout string, steps ...int) []string {
	dir := t.TempDir()
	var paths []string
	for i, s := range steps {
		p := filepath.Join(dir, fmt.Sprintf("f%d.nc", i))
		writeImportFile(t, p, layout, s, int64(100*i+len(layout)))
		paths = append(paths, p)
	}
	return paths
}

func TestImportFilesMatchesConcatOracle(t *testing.T) {
	for _, layout := range importLayouts {
		for _, steps := range [][]int{{7}, {4, 1, 3}} {
			paths := importFixture(t, layout, steps...)
			for _, frags := range []int{1, 3, 8} {
				e := NewEngine(Config{Servers: 2, FragmentsPerCube: frags})
				got, err := e.ImportFiles(paths, "T", "time")
				if err != nil {
					t.Fatal(err)
				}
				want, err := concatImportOracle(e, paths, "T", "time")
				if err != nil {
					t.Fatal(err)
				}
				sameCube(t, fmt.Sprintf("%s %v frags=%d", layout, steps, frags), got, want)
				e.Close()
			}
		}
	}
}

func TestImportShardMatchesSubsetRows(t *testing.T) {
	for _, layout := range importLayouts {
		paths := importFixture(t, layout, 4, 1, 3)
		e := newTestEngine(t)
		full, err := e.ImportFiles(paths, "T", "time")
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 4, 8} {
			for s := 0; s < shards; s++ {
				what := fmt.Sprintf("%s shard %d/%d", layout, s, shards)
				got, found, err := e.ImportShard(paths, "T", "time", s, shards)
				if err != nil {
					t.Fatal(what, err)
				}
				if layout == "time" {
					// rowless: whole on shard 0, nowhere else
					if found != (s == 0) {
						t.Fatalf("%s: found = %v", what, found)
					}
					if found {
						sameCube(t, what, got, full)
					}
					continue
				}
				lead := full.ExplicitDims()[0].Size
				lo, hi := s*lead/shards, (s+1)*lead/shards
				if found != (lo < hi) {
					t.Fatalf("%s: found = %v for rows [%d,%d)", what, found, lo, hi)
				}
				if !found {
					continue
				}
				want, err := full.SubsetRows(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				sameCube(t, what, got, want)
			}
		}
	}
}

func TestImportRejectsBadInput(t *testing.T) {
	e := newTestEngine(t)
	dir := t.TempDir()
	a := filepath.Join(dir, "a.nc")
	b := filepath.Join(dir, "b.nc")
	writeImportFile(t, a, "lat,lon,time", 4, 1)
	writeImportFile(t, b, "lat,time", 4, 2) // 5 rows, not 15
	// a header whose dims claim more values than its payload holds
	c := filepath.Join(dir, "c.nc")
	lie := ncdf.NewDataset()
	lie.AddDim("lat", 1<<20)
	lie.AddDim("time", 4)
	lie.Vars = append(lie.Vars, &ncdf.Variable{Name: "T", Dims: []string{"lat", "time"}, Data: make([]float32, 8)})
	if err := ncdf.WriteFile(c, lie); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		paths        []string
		varName, dim string
		want         string
	}{
		{[]string{a, b}, "T", "time", "shape mismatch"},
		{[]string{c}, "T", "time", "imply otherwise"},
		{[]string{a}, "T", "depth", "no dimension"},
		{[]string{a}, "GHOST", "time", "not found"},
		{[]string{filepath.Join(dir, "none.nc")}, "T", "time", "no such file"},
	} {
		if _, err := e.ImportFiles(tc.paths, tc.varName, tc.dim); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("ImportFiles(%v, %s, %s) err = %v, want %q", tc.paths, tc.varName, tc.dim, err, tc.want)
		}
	}
	if _, _, err := e.ImportShard([]string{a}, "T", "time", 2, 2); err == nil {
		t.Fatal("shard 2 of 2 accepted")
	}
	// a file counts as a storage read only once its variable is found
	reads := e.Stats().FileReads
	if _, err := e.ImportFiles([]string{a}, "GHOST", "time"); err == nil {
		t.Fatal("missing variable imported")
	}
	if got := e.Stats().FileReads - reads; got != 0 {
		t.Fatalf("FileReads = %d for a variable no file holds, want 0", got)
	}
}

// openFDs counts the process's open descriptors, or -1 where the
// platform does not list them.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestImportShardYearOfFiles imports a year of daily time-first files
// on four shards at once, as four in-process cube servers do: the
// largest file count a workflow imports (a 365-day year), so 4 × 365
// descriptors are open at the peak. Every shard must equal its rows of
// the full import, and no descriptor may outlive the imports.
func TestImportShardYearOfFiles(t *testing.T) {
	dir := t.TempDir()
	year := make([]string, 365)
	for i := range year {
		year[i] = filepath.Join(dir, fmt.Sprintf("day%03d.nc", i))
		writeImportFile(t, year[i], "time,lat,lon", 4, int64(i))
	}
	ref := newTestEngine(t)
	full, err := ref.ImportFiles(year, "T", "time")
	if err != nil {
		t.Fatal(err)
	}
	before := openFDs()
	const shards = 4
	got := make([]*Cube, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		e := NewEngine(Config{Servers: 2})
		defer e.Close()
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			got[s], _, errs[s] = e.ImportShard(year, "T", "time", s, shards)
		}(s)
	}
	wg.Wait()
	if after := openFDs(); after != before {
		t.Fatalf("open descriptors %d before the imports, %d after", before, after)
	}
	lead := full.ExplicitDims()[0].Size
	for s := 0; s < shards; s++ {
		if errs[s] != nil {
			t.Fatalf("shard %d: %v", s, errs[s])
		}
		want, err := full.SubsetRows(s*lead/shards, (s+1)*lead/shards)
		if err != nil {
			t.Fatal(err)
		}
		sameCube(t, fmt.Sprintf("year shard %d/%d", s, shards), got[s], want)
	}
}

// importAllocPerCell reports the bytes allocated per cell the import
// keeps, averaged over a few runs after one warm-up.
func importAllocPerCell(t *testing.T, run func() *Cube) float64 {
	run().Delete()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 4
	cells := 0
	for i := 0; i < runs; i++ {
		c := run()
		cells += c.Rows() * c.ImplicitLen()
		c.Delete()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(cells)
}

// TestImportAllocPerCell is the ingest row of the cost counters: an
// import allocates the cube it keeps and little more, whether it is a
// year of ESM-style daily files (time-first, four steps, twenty
// variables on the 48 × 96 benchmark grid) or one shard's quarter of
// the benchmark's (lat, lon, time) cube.
func TestImportAllocPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	const budget = 4.5
	dir := t.TempDir()
	day := filepath.Join(dir, "day.nc")
	ds := ncdf.NewDataset()
	for _, d := range []ncdf.Dim{{Name: "time", Len: 4}, {Name: "lat", Len: 48}, {Name: "lon", Len: 96}} {
		if err := ds.AddDim(d.Name, d.Len); err != nil {
			t.Fatal(err)
		}
	}
	ds.Attrs["model"] = ncdf.String("CMCC-CM3-sim")
	ds.Attrs["year"] = ncdf.Int(2040)
	for v := 0; v < 20; v++ {
		if _, err := ds.AddVar(fmt.Sprintf("VAR%02d", v), []string{"time", "lat", "lon"}, make([]float32, 4*48*96)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ncdf.WriteFile(day, ds); err != nil {
		t.Fatal(err)
	}
	year := make([]string, 365) // one file per day; each is opened and decoded on its own
	for i := range year {
		year[i] = day
	}
	bulk := filepath.Join(dir, "bulk.nc")
	bds := ncdf.NewDataset()
	for _, d := range []ncdf.Dim{{Name: "lat", Len: 48}, {Name: "lon", Len: 96}, {Name: "time", Len: 360}} {
		if err := bds.AddDim(d.Name, d.Len); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bds.AddVar("T", []string{"lat", "lon", "time"}, make([]float32, 48*96*360)); err != nil {
		t.Fatal(err)
	}
	if err := ncdf.WriteFile(bulk, bds); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(Config{Servers: 4})
	defer e.Close()
	reads := e.Stats().FileReads
	yearB := importAllocPerCell(t, func() *Cube {
		c, err := e.ImportFiles(year, "VAR10", "time")
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
	if got := e.Stats().FileReads - reads; got != 5*365 {
		t.Fatalf("FileReads = %d over 5 year imports, want one per file: %d", got, 5*365)
	}
	shardB := importAllocPerCell(t, func() *Cube {
		c, found, err := e.ImportShard([]string{bulk}, "T", "time", 1, 4)
		if err != nil || !found {
			t.Fatal(found, err)
		}
		return c
	})
	t.Logf("allocated per kept cell: year of daily files %.3f B, one shard of four %.3f B", yearB, shardB)
	if yearB > budget || shardB > budget {
		t.Fatalf("allocated per kept cell: year %.3f B, shard %.3f B; budget %.1f B", yearB, shardB, budget)
	}
}

// BenchmarkImportShard imports one shard of four of the benchmark's
// 48 × 96 × 360 (lat, lon, time) cube.
func BenchmarkImportShard(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bulk.nc")
	ds := ncdf.NewDataset()
	for _, d := range []ncdf.Dim{{Name: "lat", Len: 48}, {Name: "lon", Len: 96}, {Name: "time", Len: 360}} {
		if err := ds.AddDim(d.Name, d.Len); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := ds.AddVar("T", []string{"lat", "lon", "time"}, make([]float32, 48*96*360)); err != nil {
		b.Fatal(err)
	}
	if err := ncdf.WriteFile(path, ds); err != nil {
		b.Fatal(err)
	}
	e := NewEngine(Config{Servers: 2})
	defer e.Close()
	b.SetBytes(48 * 96 * 360 * 4 / 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, _, err := e.ImportShard([]string{path}, "T", "time", 1, 4)
		if err != nil {
			b.Fatal(err)
		}
		c.Delete()
	}
}
