package cubecluster

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/cubeserver"
	"repro/internal/datacube"
)

// listing1Files writes the two sources of the Listing-1 query: a
// sub-daily field and a daily baseline on the same grid. The field is
// laced with special values, so that run counts differ between rows
// (the anomaly of the plain fixture is the same on every row).
func listing1Files(t *testing.T) (temp, base string) {
	return writeClusterFileLaced(t, t.TempDir(), 8, 4, 32, true), writeClusterFile(t, t.TempDir(), 8, 4, 8)
}

// listing1Steps is the Listing-1 heat-wave-number pipeline: daily
// maxima, anomaly against the baseline, count of runs above a
// threshold, spatial mean.
func listing1Steps(baseID string) []cubeserver.PipelineStep {
	return []cubeserver.PipelineStep{
		{Op: "reducegroup", RowOp: "max", Group: 4},
		{Op: "intercube", RowOp: "sub", OtherID: baseID},
		{Op: "reduce", RowOp: "count_runs_above", Params: []float64{1, 2}},
		{Op: "aggrows", RowOp: "avg"},
	}
}

// importBoth imports the two Listing-1 sources through d.
func importBoth(t *testing.T, d cubeserver.Dispatcher, temp, base string) (tempID, baseID string) {
	t.Helper()
	a := mustDispatch(t, d, &cubeserver.Request{Op: "importfiles", Paths: []string{temp}, Var: "T", ImplicitDim: "time"})
	b := mustDispatch(t, d, &cubeserver.Request{Op: "importfiles", Paths: []string{base}, Var: "T", ImplicitDim: "time"})
	return a.Shape.CubeID, b.Shape.CubeID
}

// listing1Ref answers the Listing-1 query on one plain engine.
func listing1Ref(t *testing.T, temp, base string) [][]float32 {
	t.Helper()
	e := datacube.NewEngine(datacube.Config{Servers: 2, FragmentsPerCube: 4})
	defer e.Close()
	d := cubeserver.EngineDispatcher(e)
	tempID, baseID := importBoth(t, d, temp, base)
	_, vals, err := listing1Query(d, tempID, baseID)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// listing1Query is one client query as the benchmark sends it:
// pipeline, values of its result, delete. It returns the result ID
// with the values.
func listing1Query(d cubeserver.Dispatcher, srcID, baseID string) (string, [][]float32, error) {
	res := d.Dispatch(&cubeserver.Request{Op: "pipeline", CubeID: srcID, Pipeline: listing1Steps(baseID)})
	if err := cubeserver.ResponseError(res); err != nil {
		return "", nil, err
	}
	id := res.Shape.CubeID
	vals := d.Dispatch(&cubeserver.Request{Op: "values", CubeID: id})
	if err := cubeserver.ResponseError(vals); err != nil {
		return id, nil, err
	}
	if err := cubeserver.ResponseError(d.Dispatch(&cubeserver.Request{Op: "delete", CubeID: id})); err != nil {
		return id, nil, err
	}
	return id, vals.Values, nil
}

// shardRequests is the number of requests the coordinator has sent to
// shard replicas so far.
func shardRequests(cl *Cluster) float64 {
	var n float64
	for s := range cl.shards {
		n += cl.met.scatterOps.With(strconv.Itoa(s)).Value()
	}
	return n
}

// checkShardsMatchCatalog fails the test if any replica engine holds a
// cube that no catalog entry places on it.
func checkShardsMatchCatalog(t *testing.T, cl *Cluster) {
	t.Helper()
	cl.mu.Lock()
	listed := make(map[[2]int]map[string]bool)
	for _, e := range cl.cat {
		for _, p := range e.parts {
			for rep, id := range p.ids {
				k := [2]int{p.shard, rep}
				if listed[k] == nil {
					listed[k] = make(map[string]bool)
				}
				listed[k][id] = true
			}
		}
	}
	cl.mu.Unlock()
	for s := range cl.engines {
		for rep := range cl.engines[s] {
			for _, id := range cl.Engine(s, rep).List() {
				if !listed[[2]int{s, rep}][id] {
					t.Errorf("shard %d replica %d holds %s, which the catalog does not list", s, rep, id)
				}
			}
		}
	}
}

// TestClusterListing1ShardRequests pins the cost of one Listing-1
// query on four shards: one pipeline request per shard returns the
// partials, and values and delete of the 1 × N result are answered from
// the catalog — 4 shard requests whatever the replica count, and no
// shard keeps anything beyond the two sources.
func TestClusterListing1ShardRequests(t *testing.T) {
	temp, base := listing1Files(t)
	want := listing1Ref(t, temp, base)
	for _, replicas := range []int{1, 2} {
		cl := localCluster(t, 4, replicas)
		tempID, baseID := importBoth(t, cl, temp, base)
		before := shardRequests(cl)
		_, got, err := listing1Query(cl, tempID, baseID)
		if err != nil {
			t.Fatal(err)
		}
		if n := shardRequests(cl) - before; n != 4 {
			t.Errorf("R=%d: one Listing-1 query sent %v shard requests, want 4", replicas, n)
		}
		if !sameValues(got, want) {
			t.Fatalf("R=%d: got %v, want %v", replicas, got, want)
		}
		for s := 0; s < 4; s++ {
			for rep := 0; rep < replicas; rep++ {
				if ids := cl.Engine(s, rep).List(); len(ids) != 2 {
					t.Errorf("R=%d: shard %d replica %d holds %v, want the two sources", replicas, s, rep, ids)
				}
			}
		}
		checkShardsMatchCatalog(t, cl)
	}
}

// TestClusterHeldRowFeedsLaterRequests takes the coordinator-held
// result of a Listing-1 pipeline as the source of a later request: the
// row is put on a shard then, the answer is the engine's, and deleting
// both results leaves only the sources on the shards.
func TestClusterHeldRowFeedsLaterRequests(t *testing.T) {
	temp, base := listing1Files(t)
	then := &cubeserver.Request{Op: "pipeline", Pipeline: []cubeserver.PipelineStep{
		{Op: "apply", Expr: "x*2"},
		{Op: "reduce", RowOp: "sum"},
	}}
	run := func(d cubeserver.Dispatcher) (held, out string, vals [][]float32) {
		tempID, baseID := importBoth(t, d, temp, base)
		held = mustDispatch(t, d, &cubeserver.Request{Op: "pipeline", CubeID: tempID, Pipeline: listing1Steps(baseID)}).Shape.CubeID
		req := *then
		req.CubeID = held
		out = mustDispatch(t, d, &req).Shape.CubeID
		return held, out, mustDispatch(t, d, &cubeserver.Request{Op: "values", CubeID: out}).Values
	}
	e := datacube.NewEngine(datacube.Config{Servers: 2, FragmentsPerCube: 4})
	defer e.Close()
	_, _, want := run(cubeserver.EngineDispatcher(e))

	cl := localCluster(t, 4, 2)
	held, out, got := run(cl)
	if !sameValues(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	mustDispatch(t, cl, &cubeserver.Request{Op: "delete", CubeID: held})
	mustDispatch(t, cl, &cubeserver.Request{Op: "delete", CubeID: out})
	checkShardsMatchCatalog(t, cl)
	for rep := 0; rep < 2; rep++ {
		if ids := cl.Engine(0, rep).List(); len(ids) != 2 {
			t.Errorf("shard 0 replica %d holds %v, want the two sources", rep, ids)
		}
	}
}

// TestClusterHealWhileQuerying cycles one replica through
// ReplaceLocalReplica and Heal while clients run Listing-1 queries off
// the coordinator lock; every answer must stay the engine's. Run under
// -race it also checks that the replica flags and transports are only
// touched under stateMu.
func TestClusterHealWhileQuerying(t *testing.T) {
	temp, base := listing1Files(t)
	want := listing1Ref(t, temp, base)
	cl := localCluster(t, 4, 2)
	tempID, baseID := importBoth(t, cl, temp, base)

	stop := make(chan struct{})
	errs := make(chan error, 2)
	answered := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the check an unlocked scatter makes before each try, back to back
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cl.isDown(0, 0)
			}
		}
	}()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, got, err := listing1Query(cl, tempID, baseID)
				if err == nil && !sameValues(got, want) {
					err = fmt.Errorf("got %v, want %v", got, want)
				}
				if err != nil {
					errs <- err
					return
				}
				select {
				case answered <- struct{}{}:
				default:
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		select { // a query completes between two cycles
		case <-answered:
		case err := <-errs:
			t.Fatal(err)
		}
		if err := cl.ReplaceLocalReplica(0, 0); err != nil {
			t.Fatal(err)
		}
		if healed, err := cl.Heal(); err != nil || healed != 1 {
			t.Fatalf("cycle %d: healed %d, err %v", i, healed, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkShardsMatchCatalog(t, cl)
}

// TestClusterDeletePinnedEntry deletes a source while a pipeline holds
// it pinned: the catalog forgets it at once, the shards keep its cubes
// until the last unpin.
func TestClusterDeletePinnedEntry(t *testing.T) {
	temp, base := listing1Files(t)
	cl := localCluster(t, 2, 1)
	tempID, _ := importBoth(t, cl, temp, base)
	cl.mu.Lock()
	src := cl.cat[tempID]
	cl.pin([]*entry{src, src})
	cl.mu.Unlock()

	mustDispatch(t, cl, &cubeserver.Request{Op: "delete", CubeID: tempID})
	resp := cl.Dispatch(&cubeserver.Request{Op: "shape", CubeID: tempID})
	if !errors.Is(cubeserver.ResponseError(resp), datacube.ErrNotFound) {
		t.Fatalf("deleted source still resolves: %+v", resp)
	}
	if ids := cl.Engine(0, 0).List(); len(ids) != 2 {
		t.Fatalf("shard 0 holds %v while the source is pinned, want both sources", ids)
	}
	cl.mu.Lock()
	cl.unpin([]*entry{src})
	cl.mu.Unlock()
	if ids := cl.Engine(0, 0).List(); len(ids) != 2 {
		t.Fatalf("shard 0 holds %v with one pin left, want both sources", ids)
	}
	cl.mu.Lock()
	cl.unpin([]*entry{src})
	cl.mu.Unlock()
	if ids := cl.Engine(0, 0).List(); len(ids) != 1 {
		t.Fatalf("shard 0 holds %v after the last unpin, want the baseline only", ids)
	}
	checkShardsMatchCatalog(t, cl)
}

// TestClusterConcurrentHistory runs Listing-1 queries from four
// clients while another client imports and deletes an unrelated cube
// and a third deletes the queries' source mid-run. Every answer is the
// engine's or a typed ErrNotFound, and once all is done no shard holds
// a cube the catalog does not list.
func TestClusterConcurrentHistory(t *testing.T) {
	temp, base := listing1Files(t)
	other := writeClusterFile(t, t.TempDir(), 8, 2, 8)
	want := listing1Ref(t, temp, base)
	cl := localCluster(t, 4, 2)
	tempID, baseID := importBoth(t, cl, temp, base)

	const clients, queries = 4, 25
	var queriers, others sync.WaitGroup
	errs := make(chan error, clients+2)
	answered := make(chan struct{}, clients*queries)
	for c := 0; c < clients; c++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for q := 0; q < queries; q++ {
				_, got, err := listing1Query(cl, tempID, baseID)
				switch {
				case errors.Is(err, datacube.ErrNotFound):
				case err != nil:
					errs <- err
					return
				case !sameValues(got, want):
					errs <- fmt.Errorf("got %v, want %v", got, want)
					return
				default:
					answered <- struct{}{}
				}
			}
		}()
	}
	done := make(chan struct{})
	others.Add(2)
	go func() { // an unrelated client's writes
		defer others.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			imp := cl.Dispatch(&cubeserver.Request{Op: "importfiles", Paths: []string{other}, Var: "T", ImplicitDim: "time"})
			err := cubeserver.ResponseError(imp)
			if err == nil {
				err = cubeserver.ResponseError(cl.Dispatch(&cubeserver.Request{Op: "delete", CubeID: imp.Shape.CubeID}))
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // the source goes while queries are in flight
		defer others.Done()
		for i := 0; i < clients*queries/4; i++ {
			select {
			case <-answered:
			case <-done:
				return
			}
		}
		if err := cubeserver.ResponseError(cl.Dispatch(&cubeserver.Request{Op: "delete", CubeID: tempID})); err != nil {
			errs <- err
		}
	}()
	queriers.Wait()
	close(done)
	others.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkShardsMatchCatalog(t, cl)
}
