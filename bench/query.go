package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/cubecluster"
	"repro/internal/cubeserver"
	"repro/internal/datacube"
	"repro/internal/ncdf"
	"repro/internal/obs"
)

// queryFixture is north-star path (c): P clients → front cubeserver →
// cubecluster coordinator → v2 wire → four shard cubeservers, each over
// its own datacube engine; plus the independent single-engine reference.
type queryFixture struct {
	reg     *obs.Registry
	engines []*datacube.Engine
	servers []*cubeserver.Server
	cluster *cubecluster.Cluster
	front   *cubeserver.Server
	conns   []*cubeserver.Client

	tempPath       string
	tempID, baseID string

	refEngine *datacube.Engine
	refTemp   *datacube.Cube
	refBase   *datacube.Cube
	refFused  [][]float32 // the fused query's answer on one engine
	bulkSum   uint64      // checksum of the temperature file's payload
}

// doer is one way of sending a request: a client connection to the
// front, or the coordinator called in-process.
type doer func(*cubeserver.Request) (*cubeserver.Response, error)

func dispatchDoer(d cubeserver.Dispatcher) doer {
	return func(r *cubeserver.Request) (*cubeserver.Response, error) { return d.Dispatch(r), nil }
}

// call sends one request under a span and folds a server-side failure
// into the error.
func (b *bench) call(do doer, parent int, id string, req *cubeserver.Request) (*cubeserver.Response, error) {
	h := b.rec.begin("cubeserver."+req.Op, id, parent)
	resp, err := do(req)
	b.rec.end(h)
	if err != nil {
		return nil, err
	}
	return resp, cubeserver.ResponseError(resp)
}

// writeField writes a (lat × lon) × steps temperature-like field and
// returns the checksum of its payload. Values are a seasonal cycle plus
// persistent weather noise, so that multi-day runs above the baseline
// exist and the heat-wave count is not trivially zero.
func writeField(path string, lat, lon, steps, perDay int, rng *rand.Rand) (uint64, error) {
	ds := ncdf.NewDataset()
	for _, d := range []struct {
		name string
		n    int
	}{{"lat", lat}, {"lon", lon}, {"time", steps}} {
		if err := ds.AddDim(d.name, d.n); err != nil {
			return 0, err
		}
	}
	data := make([]float32, lat*lon*steps)
	for row := 0; row < lat*lon; row++ {
		mean := 275 + 25*math.Cos(float64(row/lon)/float64(lat)*math.Pi-math.Pi/2)
		weather := 0.0
		for t := 0; t < steps; t++ {
			if t%perDay == 0 {
				weather = 0.8*weather + 4*rng.NormFloat64()
			}
			season := 8 * math.Sin(2*math.Pi*float64(t)/float64(steps))
			data[row*steps+t] = float32(mean + season + weather + 0.5*rng.NormFloat64())
		}
	}
	if _, err := ds.AddVar("T", []string{"lat", "lon", "time"}, data); err != nil {
		return 0, err
	}
	return checksum([][]float32{data}), ncdf.WriteFile(path, ds)
}

// checksum is an order-sensitive FNV-style hash over the bit patterns
// of the values, row after row.
func checksum(rows [][]float32) uint64 {
	h := uint64(14695981039346656037)
	for _, row := range rows {
		for _, v := range row {
			h = (h ^ uint64(math.Float32bits(v))) * 1099511628211
		}
	}
	return h
}

// fusedSteps is the Listing-1 heat-wave-number query: daily maxima,
// anomaly against the baseline, count of runs of ≥ 6 days above 5 K,
// spatial mean.
func fusedSteps(baseID string) []cubeserver.PipelineStep {
	return []cubeserver.PipelineStep{
		{Op: "reducegroup", RowOp: "max", Group: 4},
		{Op: "intercube", RowOp: "sub", OtherID: baseID},
		{Op: "reduce", RowOp: "count_runs_above", Params: []float64{5, 6}},
		{Op: "aggrows", RowOp: "avg"},
	}
}

func importReq(path string) *cubeserver.Request {
	return &cubeserver.Request{Op: "importfiles", Paths: []string{path}, Var: "T", ImplicitDim: "time"}
}

func (b *bench) setupQuery() (fx *queryFixture, err error) {
	fx = &queryFixture{reg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	dir := filepath.Join(b.root, "cubes")
	if err := mkdir(dir); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(b.seed))
	sz := b.sz
	fx.tempPath = filepath.Join(dir, "temperature.nc")
	basePath := filepath.Join(dir, "baseline.nc")
	if fx.bulkSum, err = writeField(fx.tempPath, sz.cubeLat, sz.cubeLon, sz.cubeSteps, 4, rng); err != nil {
		return nil, err
	}
	if _, err = writeField(basePath, sz.cubeLat, sz.cubeLon, sz.cubeSteps/4, 1, rng); err != nil {
		return nil, err
	}

	transports := make([][]cubecluster.Transport, shards)
	for s := range transports {
		e := datacube.NewEngine(datacube.Config{Servers: 1, FragmentsPerCube: 2})
		fx.engines = append(fx.engines, e)
		srv, err := cubeserver.ServeDispatcher("127.0.0.1:0", cubeserver.EngineDispatcher(e), fx.reg)
		if err != nil {
			return nil, err
		}
		fx.servers = append(fx.servers, srv)
		tr, err := cubecluster.DialPoolTransport(srv.Addr(), 0)
		if err != nil {
			return nil, err
		}
		transports[s] = []cubecluster.Transport{tr}
	}
	if fx.cluster, err = cubecluster.New(cubecluster.Config{SpoolDir: dir, Metrics: fx.reg}, transports); err != nil {
		return nil, err
	}
	if fx.front, err = cubeserver.ServeDispatcher("127.0.0.1:0", fx.cluster, fx.reg); err != nil {
		return nil, err
	}
	for c := 0; c < clients; c++ {
		conn, err := cubeserver.Dial(fx.front.Addr())
		if err != nil {
			return nil, err
		}
		fx.conns = append(fx.conns, conn)
	}
	for _, imp := range []struct {
		path string
		id   *string
	}{{fx.tempPath, &fx.tempID}, {basePath, &fx.baseID}} {
		resp, err := b.call(fx.conns[0].Do, -1, "setup", importReq(imp.path))
		if err != nil {
			return nil, err
		}
		*imp.id = resp.Shape.CubeID
	}

	// reference: the same plan on one in-process engine
	fx.refEngine = datacube.NewEngine(datacube.Config{Servers: clients})
	if fx.refTemp, err = fx.refEngine.ImportFiles([]string{fx.tempPath}, "T", "time"); err != nil {
		return nil, err
	}
	if fx.refBase, err = fx.refEngine.ImportFiles([]string{basePath}, "T", "time"); err != nil {
		return nil, err
	}
	if fx.refFused, err = fx.fusedOnEngine(); err != nil {
		return nil, err
	}
	return fx, nil
}

// fusedOnEngine runs the fused query as a lazy plan on the reference
// engine and returns its values.
func (fx *queryFixture) fusedOnEngine() ([][]float32, error) {
	out, err := fx.refTemp.Lazy().
		ReduceGroup("max", 4).
		Intercube(fx.refBase, "sub").
		Reduce("count_runs_above", 5, 6).
		AggregateRows("avg").
		Execute()
	if err != nil {
		return nil, err
	}
	vals := out.Values()
	return vals, out.Delete()
}

func (fx *queryFixture) close() {
	for _, c := range fx.conns {
		c.Close()
	}
	if fx.front != nil {
		fx.front.Close()
	}
	if fx.cluster != nil {
		fx.cluster.Close()
	}
	for _, s := range fx.servers {
		s.Close()
	}
	for _, e := range fx.engines {
		e.Close()
	}
	if fx.refEngine != nil {
		fx.refEngine.Close()
	}
}

// fusedQuery is one query as a client sees it: the pipeline, the values
// of its result, the delete. It returns the latency of all three.
func (b *bench) fusedQuery(fx *queryFixture, do doer, parent int) (float64, error) {
	id := fmt.Sprintf("q-%d", b.nextID())
	h := b.rec.begin("bench.query", id, parent)
	defer b.rec.end(h)
	t0 := time.Now()
	res, err := b.call(do, h, id, &cubeserver.Request{Op: "pipeline", CubeID: fx.tempID, Pipeline: fusedSteps(fx.baseID)})
	if err != nil {
		return 0, err
	}
	vals, err := b.call(do, h, id, &cubeserver.Request{Op: "values", CubeID: res.Shape.CubeID})
	if err != nil {
		return 0, err
	}
	if _, err := b.call(do, h, id, &cubeserver.Request{Op: "delete", CubeID: res.Shape.CubeID}); err != nil {
		return 0, err
	}
	lat := time.Since(t0).Seconds()
	if !reflect.DeepEqual(vals.Values, fx.refFused) {
		return 0, fmt.Errorf("fused query answered %v, the single-engine reference %v", vals.Values, fx.refFused)
	}
	return lat, nil
}

// bulkImport is one timed write: import the temperature file, spot-check
// a row of the new cube against the resident one, delete it. The import
// dominates, so two clients queue behind each other's imports only.
func (b *bench) bulkImport(fx *queryFixture, do doer, parent int) (float64, error) {
	id := fmt.Sprintf("i-%d", b.nextID())
	h := b.rec.begin("bench.import", id, parent)
	defer b.rec.end(h)
	t0 := time.Now()
	res, err := b.call(do, h, id, importReq(fx.tempPath))
	if err != nil {
		return 0, err
	}
	lat := time.Since(t0).Seconds()
	row := int(b.nextID()) % b.sz.cubeRows()
	got, err := b.call(do, h, id, &cubeserver.Request{Op: "row", CubeID: res.Shape.CubeID, Row: row})
	if err != nil {
		return 0, err
	}
	if _, err := b.call(do, h, id, &cubeserver.Request{Op: "delete", CubeID: res.Shape.CubeID}); err != nil {
		return 0, err
	}
	want, err := fx.refTemp.Row(row)
	if err != nil {
		return 0, err
	}
	if len(got.Values) != 1 || !bitEqual(got.Values[0], want) {
		return 0, fmt.Errorf("row %d of the imported cube differs from the file payload", row)
	}
	return lat, nil
}

// bulkGather is one timed read: the values of the whole resident
// temperature cube, checked against the checksum of the file payload.
func (b *bench) bulkGather(fx *queryFixture, do doer, parent int) (float64, error) {
	id := fmt.Sprintf("g-%d", b.nextID())
	h := b.rec.begin("bench.gather", id, parent)
	defer b.rec.end(h)
	t0 := time.Now()
	vals, err := b.call(do, h, id, &cubeserver.Request{Op: "values", CubeID: fx.tempID})
	if err != nil {
		return 0, err
	}
	lat := time.Since(t0).Seconds()
	v := b.rec.begin("bench.verify", id, h)
	got := checksum(vals.Values)
	b.rec.end(v)
	if got != fx.bulkSum {
		return 0, fmt.Errorf("gathered values hash to %x, the file payload to %x", got, fx.bulkSum)
	}
	return lat, nil
}

// closedLoop runs op from n client goroutines until the time is up;
// each client sends its next operation only after the previous one
// completed. In the first round a client's first operation is a
// warm-up: checked, not timed.
func (b *bench) closedLoop(stageSpan, n int, seconds float64, op func(client, lane int, warm bool)) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lane := b.rec.begin("bench.client", fmt.Sprint(c), stageSpan)
			defer b.rec.end(lane)
			for k := 0; k < 2 || time.Now().Before(deadline); k++ {
				op(c, lane, k == 0 && b.round == 0)
			}
		}(c)
	}
	wg.Wait()
}

// histDelta subtracts an earlier histogram snapshot from a later one.
func histDelta(before, after obs.HistogramSnapshot) obs.HistogramSnapshot {
	after.Counts = append([]uint64(nil), after.Counts...)
	for i := range before.Counts {
		after.Counts[i] -= before.Counts[i]
	}
	after.Count -= before.Count
	after.Sum -= before.Sum
	return after
}

// histSum adds the growth d to the running total (empty at first).
func histSum(total, d obs.HistogramSnapshot) obs.HistogramSnapshot {
	if len(total.Counts) == 0 {
		return d
	}
	for i := range d.Counts {
		total.Counts[i] += d.Counts[i]
	}
	total.Count += d.Count
	total.Sum += d.Sum
	return total
}

func (fx *queryFixture) wireBytes(dir string) float64 {
	return fx.reg.CounterVec("cubeserver_wire_bytes_"+dir+"_total", "", "codec").With("v2").Value()
}

// fusedStage is one round of the closed loop of fused queries from
// nClients clients. It returns completed queries per second.
func (b *bench) fusedStage(fx *queryFixture, nClients int, seconds float64, record bool) float64 {
	stage := b.rec.begin("bench.stage", "query-fused", -1)
	defer b.rec.end(stage)
	var mu sync.Mutex
	var lats []float64
	shard0 := fx.cluster.ShardOpSnapshot()
	sc0, ga0 := fx.cluster.BytesStats()
	t0 := time.Now()
	b.closedLoop(stage, nClients, seconds, func(c, lane int, warm bool) {
		lat, err := b.fusedQuery(fx, fx.conns[c].Do, lane)
		b.col.op(err, "fused query")
		if err == nil && !warm {
			mu.Lock()
			lats = append(lats, ms(lat))
			mu.Unlock()
		}
	})
	perS := float64(len(lats)) / time.Since(t0).Seconds()
	if !record || len(lats) == 0 {
		return perS
	}
	for _, l := range lats {
		b.col.sample("query_ms", l)
	}
	b.col.perRound("query_per_s", perS, len(lats))
	// the shard operations of the fused stages of all rounds so far
	b.shardOps = histSum(b.shardOps, histDelta(shard0, fx.cluster.ShardOpSnapshot()))
	sc1, ga1 := fx.cluster.BytesStats()
	b.col.set("cubecluster.shard_op_p50_ms", ms(b.shardOps.Quantile(0.5)), int(b.shardOps.Count))
	b.col.set("cubecluster.shard_op_p99_ms", ms(b.shardOps.Quantile(0.99)), int(b.shardOps.Count))
	b.col.perRound("cubecluster.scatter_bytes_per_query", (sc1-sc0)/float64(len(lats)), len(lats))
	b.col.perRound("cubecluster.gather_bytes_per_query", (ga1-ga0)/float64(len(lats)), len(lats))
	return perS
}

// bulkStage is the write side then the read side of the same layers,
// each a closed loop: importfiles of the temperature file for two thirds
// of the stage (the slower and less steady operation), then values of
// the resident cube. One client, and the two not interleaved: the
// coordinator serializes requests, so a second client or a mixed loop
// adds only queueing, and how that wait splits between the operations
// depends on how the loops happen to lock step, run by run.
func (b *bench) bulkStage(fx *queryFixture, seconds float64) {
	stage := b.rec.begin("bench.stage", "query-bulk", -1)
	defer b.rec.end(stage)
	out0, in0 := fx.wireBytes("out"), fx.wireBytes("in")
	loop := func(what string, share float64, op func(*queryFixture, doer, int) (float64, error)) []float64 {
		var mu sync.Mutex
		var lats []float64
		b.closedLoop(stage, 1, share*seconds, func(c, lane int, warm bool) {
			lat, err := op(fx, fx.conns[c].Do, lane)
			b.col.op(err, what)
			if err == nil && !warm {
				mu.Lock()
				lats = append(lats, lat)
				mu.Unlock()
			}
		})
		return lats
	}
	imps := loop("bulk import", 2.0/3, b.bulkImport)
	gathers := loop("bulk gather", 1.0/3, b.bulkGather)
	if len(imps) == 0 || len(gathers) == 0 {
		return
	}
	for _, l := range imps {
		b.col.sample("import_ms", ms(l))
	}
	for _, l := range gathers {
		b.col.sample("values_ms", ms(l))
	}
	ops := float64(len(imps) + len(gathers))
	b.col.perRound("cubeserver.wire_bytes_out_per_op", (fx.wireBytes("out")-out0)/ops, int(ops))
	b.col.perRound("cubeserver.wire_bytes_in_per_op", (fx.wireBytes("in")-in0)/ops, int(ops))
}
