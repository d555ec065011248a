package cubecluster

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/cubeserver"
	"repro/internal/datacube"
	"repro/internal/ncdf"
)

// writeClusterFile creates a GNC1 file with an integer-valued variable
// T over (lat, lon, time). Integer values keep every float64 partial
// sum exact, so cluster results must be BYTE-identical to a single
// engine at any shard count — no tolerance anywhere in these tests.
func writeClusterFile(t *testing.T, dir string, lat, lon, steps int) string {
	return writeClusterFileLaced(t, dir, lat, lon, steps, false)
}

// writeClusterFileLaced is writeClusterFile with, when lace is set,
// about one value in five replaced by NaN of either sign, ±Inf or ±0:
// what is left is still integer-valued, so sums stay exact, and every
// special value must come out of a sharded pipeline as it comes out of
// one engine (compare with sameValues: NaN defeats reflect.DeepEqual).
func writeClusterFileLaced(t *testing.T, dir string, lat, lon, steps int, lace bool) string {
	t.Helper()
	specials := []float32{
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(0x80000000), 0,
	}
	ds := ncdf.NewDataset()
	if err := ds.AddDim("lat", lat); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddDim("lon", lon); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddDim("time", steps); err != nil {
		t.Fatal(err)
	}
	data := make([]float32, lat*lon*steps)
	for l := 0; l < lat; l++ {
		for o := 0; o < lon; o++ {
			for tt := 0; tt < steps; tt++ {
				data[(l*lon+o)*steps+tt] = float32((l*7+o*3)%13 + (tt*5)%9)
				if h := (l*lon+o)*31 + tt*17; lace && h%5 == 0 {
					data[(l*lon+o)*steps+tt] = specials[h/5%len(specials)]
				}
			}
		}
	}
	if _, err := ds.AddVar("T", []string{"lat", "lon", "time"}, data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cluster.nc")
	if err := ncdf.WriteFile(path, ds); err != nil {
		t.Fatal(err)
	}
	return path
}

// sameValues compares by bit pattern, any NaN equal to any NaN: which
// of two NaNs an addition returns is the register allocator's choice,
// and a shard merge adds in another function than an engine does.
func sameValues(got, want [][]float32) bool {
	if len(got) != len(want) {
		return false
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			return false
		}
		for i, w := range want[r] {
			g := got[r][i]
			if math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
				return false
			}
		}
	}
	return true
}

func mustDispatch(t *testing.T, d cubeserver.Dispatcher, req *cubeserver.Request) *cubeserver.Response {
	t.Helper()
	resp := d.Dispatch(req)
	if resp.Err != "" {
		t.Fatalf("%s: %s", req.Op, resp.Err)
	}
	return resp
}

// engineRef runs import+pipeline+values against a plain single engine
// through the same wire requests the cluster serves.
func engineRef(t *testing.T, paths []string, pipe []cubeserver.PipelineStep) [][]float32 {
	t.Helper()
	e := datacube.NewEngine(datacube.Config{Servers: 2, FragmentsPerCube: 4})
	defer e.Close()
	d := cubeserver.EngineDispatcher(e)
	imp := mustDispatch(t, d, &cubeserver.Request{Op: "importfiles", Paths: paths, Var: "T", ImplicitDim: "time"})
	out := mustDispatch(t, d, &cubeserver.Request{Op: "pipeline", CubeID: imp.Shape.CubeID, Pipeline: pipe})
	return mustDispatch(t, d, &cubeserver.Request{Op: "values", CubeID: out.Shape.CubeID}).Values
}

func localCluster(t *testing.T, shards, replicas int) *Cluster {
	t.Helper()
	cl, err := NewLocal(Config{
		Shards: shards, Replicas: replicas,
		Engine:   datacube.Config{Servers: 2, FragmentsPerCube: 4},
		SpoolDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func clusterRun(t *testing.T, cl *Cluster, paths []string, pipe []cubeserver.PipelineStep) [][]float32 {
	t.Helper()
	imp := mustDispatch(t, cl, &cubeserver.Request{Op: "importfiles", Paths: paths, Var: "T", ImplicitDim: "time"})
	out := mustDispatch(t, cl, &cubeserver.Request{Op: "pipeline", CubeID: imp.Shape.CubeID, Pipeline: pipe})
	return mustDispatch(t, cl, &cubeserver.Request{Op: "values", CubeID: out.Shape.CubeID}).Values
}

// TestClusterPipelineEquivalence runs the repo's two flagship pipeline
// shapes (heat-wave style reduce chains and a TC-style
// trailing-aggregation chain) on 1/2/4/8 shards and demands byte
// equality with a plain engine.
func TestClusterPipelineEquivalence(t *testing.T) {
	paths := []string{
		writeClusterFile(t, t.TempDir(), 8, 4, 16),
		writeClusterFileLaced(t, t.TempDir(), 8, 4, 16, true),
	}
	pipelines := map[string][]cubeserver.PipelineStep{
		"heatwave": {
			{Op: "apply", Expr: "x*2"},
			{Op: "apply", Expr: "x+1"},
			{Op: "subset", Lo: 2, Hi: 14},
			{Op: "reducegroup", RowOp: "max", Group: 4},
			{Op: "aggrows", RowOp: "avg"},
		},
		"tc-zonal": {
			{Op: "apply", Expr: "x+1"},
			{Op: "aggtrailing", RowOp: "max"},
			{Op: "subsetrows", Lo: 1, Hi: 7},
			{Op: "reduce", RowOp: "max"},
			{Op: "aggrows", RowOp: "max"},
		},
		"counting": {
			{Op: "reduce", RowOp: "count_above", Params: []float64{9}},
			{Op: "aggrows", RowOp: "sum"},
		},
		"listing1": {
			{Op: "reducegroup", RowOp: "max", Group: 4},
			{Op: "reduce", RowOp: "count_runs_above", Params: []float64{8, 2}},
			{Op: "aggrows", RowOp: "avg"},
		},
		"coldest": {
			{Op: "reducestride", RowOp: "min", Group: 4},
			{Op: "aggrows", RowOp: "min"},
		},
		"aggrows-mid-pipeline": {
			{Op: "apply", Expr: "x*2"},
			{Op: "aggrows", RowOp: "max"},
			{Op: "apply", Expr: "x-1"},
			{Op: "aggrows", RowOp: "sum"},
			{Op: "reduce", RowOp: "max"},
		},
		"fallback-std": {
			{Op: "reducegroup", RowOp: "longest_run_below", Group: 8, Params: []float64{6}},
			{Op: "aggrows", RowOp: "std"},
		},
	}
	for name, pipe := range pipelines {
		for pi, path := range paths {
			want := engineRef(t, []string{path}, pipe)
			for _, shards := range []int{1, 2, 4, 8} {
				cl := localCluster(t, shards, 1)
				got := clusterRun(t, cl, []string{path}, pipe)
				if !sameValues(got, want) {
					t.Fatalf("%s on %d shards (file %d) diverged:\ngot  %v\nwant %v", name, shards, pi, got, want)
				}
			}
		}
	}
}

// TestClusterAggRowsFallback pins the full-gather path: quantile has
// no partial merge, so the barrier must gather columns (counted) and
// still match the engine bit for bit.
func TestClusterAggRowsFallback(t *testing.T) {
	for _, lace := range []bool{false, true} {
		path := writeClusterFileLaced(t, t.TempDir(), 8, 2, 12, lace)
		pipe := []cubeserver.PipelineStep{
			{Op: "apply", Expr: "x+1"},
			{Op: "aggrows", RowOp: "quantile", Params: []float64{0.75}},
		}
		want := engineRef(t, []string{path}, pipe)
		cl := localCluster(t, 4, 1)
		got := clusterRun(t, cl, []string{path}, pipe)
		if !sameValues(got, want) {
			t.Fatalf("quantile fallback (laced %v) diverged:\ngot  %v\nwant %v", lace, got, want)
		}
		if cl.met.mergeFB.Value() != 1 {
			t.Fatalf("merge fallback counter = %v, want 1", cl.met.mergeFB.Value())
		}
	}
}

// TestClusterBarrierMovesOnlyPartials checks the C3 contract: through
// a pipeline ending in a mergeable aggrows, the bytes gathered from
// shards stay far below the resident cube size, because only per-shard
// partials (plus shapes) cross the wire.
func TestClusterBarrierMovesOnlyPartials(t *testing.T) {
	const lat, lon, steps = 64, 8, 32
	path := writeClusterFile(t, t.TempDir(), lat, lon, steps)
	cl := localCluster(t, 4, 1)
	imp := mustDispatch(t, cl, &cubeserver.Request{Op: "importfiles", Paths: []string{path}, Var: "T", ImplicitDim: "time"})
	_, g0 := cl.BytesStats()
	mustDispatch(t, cl, &cubeserver.Request{Op: "pipeline", CubeID: imp.Shape.CubeID, Pipeline: []cubeserver.PipelineStep{
		{Op: "apply", Expr: "x*2"},
		{Op: "aggrows", RowOp: "avg"},
	}})
	_, g1 := cl.BytesStats()
	cubeBytes := float64(lat * lon * steps * 4)
	if gathered := g1 - g0; gathered > cubeBytes/8 {
		t.Fatalf("pipeline gathered %.0f bytes; want ≪ cube size %.0f (only partials should move)", gathered, cubeBytes)
	}
}

// TestClusterIntercubeCoSharded combines two identically-placed cubes
// shard-locally and checks equality with the engine.
func TestClusterIntercubeCoSharded(t *testing.T) {
	path := writeClusterFile(t, t.TempDir(), 8, 2, 8)

	e := datacube.NewEngine(datacube.Config{Servers: 2, FragmentsPerCube: 4})
	defer e.Close()
	d := cubeserver.EngineDispatcher(e)
	a := mustDispatch(t, d, &cubeserver.Request{Op: "importfiles", Paths: []string{path}, Var: "T", ImplicitDim: "time"})
	b := mustDispatch(t, d, &cubeserver.Request{Op: "importfiles", Paths: []string{path}, Var: "T", ImplicitDim: "time"})
	refPipe := []cubeserver.PipelineStep{
		{Op: "apply", Expr: "x*2"},
		{Op: "intercube", OtherID: b.Shape.CubeID, RowOp: "sub"},
		{Op: "aggrows", RowOp: "sum"},
	}
	refOut := mustDispatch(t, d, &cubeserver.Request{Op: "pipeline", CubeID: a.Shape.CubeID, Pipeline: refPipe})
	want := mustDispatch(t, d, &cubeserver.Request{Op: "values", CubeID: refOut.Shape.CubeID}).Values

	cl := localCluster(t, 4, 1)
	ca := mustDispatch(t, cl, &cubeserver.Request{Op: "importfiles", Paths: []string{path}, Var: "T", ImplicitDim: "time"})
	cb := mustDispatch(t, cl, &cubeserver.Request{Op: "importfiles", Paths: []string{path}, Var: "T", ImplicitDim: "time"})
	pipe := []cubeserver.PipelineStep{
		{Op: "apply", Expr: "x*2"},
		{Op: "intercube", OtherID: cb.Shape.CubeID, RowOp: "sub"},
		{Op: "aggrows", RowOp: "sum"},
	}
	out := mustDispatch(t, cl, &cubeserver.Request{Op: "pipeline", CubeID: ca.Shape.CubeID, Pipeline: pipe})
	got := mustDispatch(t, cl, &cubeserver.Request{Op: "values", CubeID: out.Shape.CubeID}).Values
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("intercube diverged:\ngot  %v\nwant %v", got, want)
	}

	// Differently-placed operands must be rejected with the typed error.
	sub := mustDispatch(t, cl, &cubeserver.Request{Op: "subsetrows", CubeID: cb.Shape.CubeID, Lo: 0, Hi: 4})
	resp := cl.Dispatch(&cubeserver.Request{Op: "intercube", CubeID: ca.Shape.CubeID, OtherID: sub.Shape.CubeID, RowOp: "add"})
	if resp.Err == "" {
		t.Fatal("intercube across placements should fail")
	}
}

// TestClusterFailover kills one replica of a shard and demands the
// pipeline complete on the survivor with byte-identical output.
func TestClusterFailover(t *testing.T) {
	path := writeClusterFile(t, t.TempDir(), 8, 4, 16)
	pipe := []cubeserver.PipelineStep{
		{Op: "apply", Expr: "x+1"},
		{Op: "reducegroup", RowOp: "max", Group: 4},
		{Op: "aggrows", RowOp: "avg"},
	}
	want := engineRef(t, []string{path}, pipe)

	cl := localCluster(t, 4, 2)
	imp := mustDispatch(t, cl, &cubeserver.Request{Op: "importfiles", Paths: []string{path}, Var: "T", ImplicitDim: "time"})
	cl.Engine(1, 0).Close() // primary replica of shard 1 dies
	out := mustDispatch(t, cl, &cubeserver.Request{Op: "pipeline", CubeID: imp.Shape.CubeID, Pipeline: pipe})
	got := mustDispatch(t, cl, &cubeserver.Request{Op: "values", CubeID: out.Shape.CubeID}).Values
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("failover output diverged:\ngot  %v\nwant %v", got, want)
	}
	if cl.met.failovers.Value() == 0 {
		t.Fatal("failover counter never moved")
	}
	if up := cl.met.replicaUp.With("1", "0").Value(); up != 0 {
		t.Fatalf("replica_up{1,0} = %v, want 0", up)
	}
}

// TestClusterKillMidPipeline closes a replica engine concurrently with
// a running pipeline; the output must still match.
func TestClusterKillMidPipeline(t *testing.T) {
	path := writeClusterFile(t, t.TempDir(), 8, 4, 16)
	pipe := []cubeserver.PipelineStep{
		{Op: "apply", Expr: "x*2"},
		{Op: "apply", Expr: "x+1"},
		{Op: "aggtrailing", RowOp: "max"},
		{Op: "subsetrows", Lo: 0, Hi: 6},
		{Op: "aggrows", RowOp: "max"},
	}
	want := engineRef(t, []string{path}, pipe)

	cl := localCluster(t, 2, 2)
	imp := mustDispatch(t, cl, &cubeserver.Request{Op: "importfiles", Paths: []string{path}, Var: "T", ImplicitDim: "time"})
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(500 * time.Microsecond)
		cl.Engine(1, 0).Close()
	}()
	out := mustDispatch(t, cl, &cubeserver.Request{Op: "pipeline", CubeID: imp.Shape.CubeID, Pipeline: pipe})
	got := mustDispatch(t, cl, &cubeserver.Request{Op: "values", CubeID: out.Shape.CubeID}).Values
	<-done
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kill-mid-pipeline output diverged:\ngot  %v\nwant %v", got, want)
	}
}

// TestClusterHealResync restarts a dead replica empty, heals it from
// the survivor via the export→CopyVerified→putcube path, then kills
// the survivor and reads everything back through the healed copy.
func TestClusterHealResync(t *testing.T) {
	path := writeClusterFile(t, t.TempDir(), 8, 2, 8)
	cl := localCluster(t, 2, 2)
	imp := mustDispatch(t, cl, &cubeserver.Request{Op: "importfiles", Paths: []string{path}, Var: "T", ImplicitDim: "time"})
	derived := mustDispatch(t, cl, &cubeserver.Request{Op: "pipeline", CubeID: imp.Shape.CubeID, Pipeline: []cubeserver.PipelineStep{
		{Op: "apply", Expr: "x*2"},
		{Op: "reduce", RowOp: "sum"},
	}})
	wantImp := mustDispatch(t, cl, &cubeserver.Request{Op: "values", CubeID: imp.Shape.CubeID}).Values
	wantDer := mustDispatch(t, cl, &cubeserver.Request{Op: "values", CubeID: derived.Shape.CubeID}).Values

	// Replica (0,0) dies and is replaced by an empty engine.
	cl.Engine(0, 0).Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cl.ReplaceLocalReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	healed, err := cl.Heal()
	if err != nil {
		t.Fatal(err)
	}
	if healed != 1 {
		t.Fatalf("healed %d replicas, want 1", healed)
	}
	if cl.met.resyncs.Value() != 1 {
		t.Fatalf("resync counter = %v, want 1", cl.met.resyncs.Value())
	}

	// Survivor dies; the healed replica must now carry shard 0 alone.
	cl.Engine(0, 1).Close()
	gotImp := mustDispatch(t, cl, &cubeserver.Request{Op: "values", CubeID: imp.Shape.CubeID}).Values
	gotDer := mustDispatch(t, cl, &cubeserver.Request{Op: "values", CubeID: derived.Shape.CubeID}).Values
	if !reflect.DeepEqual(gotImp, wantImp) || !reflect.DeepEqual(gotDer, wantDer) {
		t.Fatal("healed replica served different data than the original")
	}
}

// TestClusterWireParity exercises the non-pipeline wire surface —
// row/scalar/shape/list/meta/delete/export — for parity with a single
// engine.
func TestClusterWireParity(t *testing.T) {
	path := writeClusterFile(t, t.TempDir(), 8, 2, 8)
	cl := localCluster(t, 4, 1)
	imp := mustDispatch(t, cl, &cubeserver.Request{Op: "importfiles", Paths: []string{path}, Var: "T", ImplicitDim: "time"})
	id := imp.Shape.CubeID

	if imp.Shape.Rows != 16 || imp.Shape.ImplicitLen != 8 || imp.Shape.Measure != "T" {
		t.Fatalf("import shape = %+v", imp.Shape)
	}
	want := engineRef(t, []string{path}, []cubeserver.PipelineStep{{Op: "apply", Expr: "x+0"}})
	for _, r := range []int{0, 5, 15} {
		row := mustDispatch(t, cl, &cubeserver.Request{Op: "row", CubeID: id, Row: r}).Values[0]
		if !reflect.DeepEqual(row, want[r]) {
			t.Fatalf("row %d = %v, want %v", r, row, want[r])
		}
	}

	mustDispatch(t, cl, &cubeserver.Request{Op: "setmeta", CubeID: id, Key: "units", Value: "K"})
	if got := mustDispatch(t, cl, &cubeserver.Request{Op: "getmeta", CubeID: id, Key: "units"}); got.Value != "K" || !got.Found {
		t.Fatalf("meta round trip = %+v", got)
	}

	// Scalar through a full collapse.
	sc := mustDispatch(t, cl, &cubeserver.Request{Op: "pipeline", CubeID: id, Pipeline: []cubeserver.PipelineStep{
		{Op: "reduce", RowOp: "sum"},
		{Op: "aggrows", RowOp: "sum"},
	}})
	gotScalar := mustDispatch(t, cl, &cubeserver.Request{Op: "scalar", CubeID: sc.Shape.CubeID}).Scalar
	var wantScalar float64
	for _, r := range want {
		for _, v := range r {
			wantScalar += float64(v)
		}
	}
	if gotScalar != wantScalar {
		t.Fatalf("scalar = %v, want %v", gotScalar, wantScalar)
	}

	// Export → reimport round trip.
	out := filepath.Join(t.TempDir(), "export.nc")
	mustDispatch(t, cl, &cubeserver.Request{Op: "export", CubeID: id, Path: out})
	ds, err := ncdf.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ds.Var("T")
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]float32, 0, 16*8)
	for _, r := range want {
		flat = append(flat, r...)
	}
	if !reflect.DeepEqual(v.Data, flat) {
		t.Fatal("export diverged from cube contents")
	}

	mustDispatch(t, cl, &cubeserver.Request{Op: "delete", CubeID: sc.Shape.CubeID})
	resp := cl.Dispatch(&cubeserver.Request{Op: "values", CubeID: sc.Shape.CubeID})
	if !errors.Is(cubeserver.ResponseError(resp), datacube.ErrNotFound) {
		t.Fatalf("deleted cube should report ErrNotFound, got %q", resp.Err)
	}
	ids := mustDispatch(t, cl, &cubeserver.Request{Op: "list"}).IDs
	for _, got := range ids {
		if got == sc.Shape.CubeID {
			t.Fatal("deleted cube still listed")
		}
	}
	if st := mustDispatch(t, cl, &cubeserver.Request{Op: "stats"}).Stats; st.Ops == 0 || st.FileReads == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}
