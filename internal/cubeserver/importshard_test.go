package cubeserver

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datacube"
	"repro/internal/ncdf"
)

// writeLayoutFile writes variable T over the comma-separated dims (lat
// 7, lon 3, time steps) with seeded values laced with NaN and -0.
func writeLayoutFile(t *testing.T, path, layout string, steps int, seed int64) {
	t.Helper()
	size := map[string]int{"lat": 7, "lon": 3, "time": steps}
	ds := ncdf.NewDataset()
	dims := strings.Split(layout, ",")
	n := 1
	for _, d := range dims {
		ds.AddDim(d, size[d])
		n *= size[d]
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n)
	for i := range data {
		switch rng.Intn(8) {
		case 0:
			data[i] = float32(math.NaN())
		case 1:
			data[i] = float32(math.Copysign(0, -1))
		default:
			data[i] = float32(rng.NormFloat64() * 30)
		}
	}
	if _, err := ds.AddVar("T", dims, data); err != nil {
		t.Fatal(err)
	}
	if err := ncdf.WriteFile(path, ds); err != nil {
		t.Fatal(err)
	}
}

// TestImportShardOpMatchesFullImport: every shard of an importshard,
// at 1, 2, 3, 4 and 8 shards, is bit-identical to the matching
// SubsetRows of one full ImportFiles, for both on-disk layouts,
// multi-file imports, more shards than leading rows and a rowless
// variable; and every shard reads each file exactly once.
func TestImportShardOpMatchesFullImport(t *testing.T) {
	ref := datacube.NewEngine(datacube.Config{Servers: 2})
	defer ref.Close()
	for _, layout := range []string{"lat,lon,time", "time,lat,lon", "time"} {
		dir := t.TempDir()
		var paths []string
		for i, steps := range []int{5, 2, 4} {
			p := filepath.Join(dir, fmt.Sprintf("d%d.nc", i))
			writeLayoutFile(t, p, layout, steps, int64(i+1))
			paths = append(paths, p)
		}
		full, err := ref.ImportFiles(paths, "T", "time")
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 4, 8} {
			for s := 0; s < shards; s++ {
				what := fmt.Sprintf("%s shard %d/%d", layout, s, shards)
				engine := datacube.NewEngine(datacube.Config{Servers: 2, FragmentsPerCube: 3})
				resp := EngineDispatcher(engine).Dispatch(&Request{
					Op: "importshard", Paths: paths, Var: "T", ImplicitDim: "time", Shard: s, Shards: shards,
				})
				if err := ResponseError(resp); err != nil {
					t.Fatal(what, err)
				}
				if got := engine.Stats().FileReads; got != int64(len(paths)) {
					t.Fatalf("%s: FileReads = %d, want %d", what, got, len(paths))
				}
				want := full
				found := s == 0
				if layout != "time" {
					lead := full.ExplicitDims()[0].Size
					lo, hi := s*lead/shards, (s+1)*lead/shards
					if found = lo < hi; found {
						if want, err = full.SubsetRows(lo, hi); err != nil {
							t.Fatal(err)
						}
					}
				}
				if resp.Found != found {
					t.Fatalf("%s: found = %v, want %v", what, resp.Found, found)
				}
				if found {
					got, err := engine.Get(resp.Shape.CubeID)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got.ExplicitDims(), got.ImplicitDim()) != fmt.Sprint(want.ExplicitDims(), want.ImplicitDim()) {
						t.Fatalf("%s: shape %v %v, want %v %v", what, got.ExplicitDims(), got.ImplicitDim(), want.ExplicitDims(), want.ImplicitDim())
					}
					gv, wv := got.Values(), want.Values()
					for r := range wv {
						for k := range wv[r] {
							if math.Float32bits(gv[r][k]) != math.Float32bits(wv[r][k]) {
								t.Fatalf("%s: row %d value %d = %v, want %v", what, r, k, gv[r][k], wv[r][k])
							}
						}
					}
				}
				engine.Close()
			}
		}
	}
}

// TestResidentRebuildsDroppedShard: an importshard cube dropped off the
// residency ladder is rebuilt from its recipe with the same values.
func TestResidentRebuildsDroppedShard(t *testing.T) {
	// two 1152-byte shards; at their coarsest rung (192 bytes each) both
	// still exceed the budget, so one must drop off the ladder
	const budget = 300
	disp, _, reg := newResidentHarness(t, budget)
	ref := datacube.NewEngine(datacube.Config{Servers: 2})
	defer ref.Close()
	dir := t.TempDir()
	shard := func(name string) (string, [][]float32) {
		p := filepath.Join(dir, name)
		writeLayoutFile(t, p, "lat,lon,time", 24, int64(len(name)))
		resp := mustDispatch(t, disp, &Request{Op: "importshard", Paths: []string{p}, Var: "T", ImplicitDim: "time", Shard: 1, Shards: 2})
		want, _, err := ref.ImportShard([]string{p}, "T", "time", 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Shape.CubeID, want.Values()
	}
	cold, want := shard("cold.nc")
	shard("hot.nc")
	if v := reg.Counter("cubeserver_drops_total", "").Value(); v < 1 {
		t.Fatalf("drops counter = %v, want a drop under a %d-byte budget", v, budget)
	}
	got := mustDispatch(t, disp, &Request{Op: "values", CubeID: cold}).Values
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rebuilt shard = %v, want %v", got, want)
	}
}
