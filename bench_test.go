// Package repro's root benchmark harness regenerates every figure and
// performance claim of the paper (see DESIGN.md's experiment index and
// EXPERIMENTS.md for measured results):
//
//	BenchmarkFig3TaskGraph            Figure 3 — executed task graph
//	BenchmarkFig4Pipeline             Figure 4 — heat-wave index pipeline
//	BenchmarkE2EConcurrentVsSequential C1 — overlap vs two-stage baseline
//	BenchmarkBaselineReuse            C2 — in-memory baseline reuse
//	BenchmarkCubeScaling              C3 — I/O-server scaling
//	BenchmarkClusterShardSweep        C3 — sharded cluster scatter/gather scaling
//	BenchmarkWireCodec                C3 — v2 wire codec throughput
//	BenchmarkRuntimeThroughput        C4 — task-graph parallelism
//	BenchmarkSchedulerOverhead        C4 — per-task runtime overhead
//	BenchmarkCNNInference             C5 — ML localizer inference cost
//	BenchmarkCNNInferenceBatched      C5 — reference vs compiled batched engine
//	BenchmarkCNNTrainStep             C5 — one training step (layer path)
//	BenchmarkDetectStep               C5 — full per-step patch sweep
//	BenchmarkCheckpointOverhead       C6 — checkpointing cost
//	BenchmarkStreamDetectLatency      C7 — year-completion detection
//	BenchmarkESMHandoff               C8 — file vs tensor-exchange handoff
//	BenchmarkPyramidFrontier          F6 — coarse-first tolerance frontier
//	BenchmarkLocalityPlacement        ablation — locality-aware placement
//
// Run with: go test -bench=. -benchmem .
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compss"
	"repro/internal/core"
	"repro/internal/cubecluster"
	"repro/internal/cubeserver"
	"repro/internal/datacube"
	"repro/internal/esm"
	"repro/internal/execq"
	"repro/internal/grid"
	"repro/internal/indices"
	"repro/internal/ml"
	"repro/internal/ncdf"
	"repro/internal/stream"
	"repro/internal/tctrack"
	"repro/internal/texchange"
)

// benchEvents keeps every branch of the workflow active.
var benchEvents = &esm.EventConfig{
	HeatWavesPerYear: 2, ColdSpellsPerYear: 1, CyclonesPerYear: 1,
	WaveAmplitudeK: 9, WaveMinDays: 6, WaveMaxDays: 7,
}

func benchConfig(b *testing.B, years int) core.Config {
	b.Helper()
	return core.Config{
		Grid:        grid.Grid{NLat: 24, NLon: 48},
		Years:       years,
		DaysPerYear: 12,
		Seed:        7,
		OutputDir:   b.TempDir(),
		Workers:     4,
		CubeServers: 2,
		Events:      benchEvents,
	}
}

// BenchmarkFig3TaskGraph executes the one-year workflow and reports the
// size of the reproduced Figure 3 task graph.
func BenchmarkFig3TaskGraph(b *testing.B) {
	var nodes int
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(b, 1)
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		nodes = res.RuntimeStats.Invoked
	}
	b.ReportMetric(float64(nodes), "graph-nodes")
}

// BenchmarkFig4Pipeline measures the heat-wave index pipeline that
// produces Figure 4's map, on one pre-generated year.
func BenchmarkFig4Pipeline(b *testing.B) {
	g := grid.Grid{NLat: 32, NLon: 64}
	const days = 20
	dir := b.TempDir()
	model := esm.NewModel(esm.Config{Grid: g, Years: 1, DaysPerYear: days, Seed: 7, Events: benchEvents})
	files, err := model.Run(esm.RunOptions{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	engine := datacube.NewEngine(datacube.Config{Servers: 2})
	defer engine.Close()
	baseline, err := indices.BuildBaseline(engine, g, days)
	if err != nil {
		b.Fatal(err)
	}
	params := indices.Params{DaysPerYear: days}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := indices.HeatWaves(engine, files, baseline, params)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Duration.Delete()
		_ = res.Number.Delete()
		_ = res.Frequency.Delete()
	}
}

// BenchmarkFusedVsEagerPipeline isolates the fused data plane's win on
// the Figure-4 workload: the same heat-wave chain on the same resident
// cube, executed operator-at-a-time (eager) vs as one fused
// multi-output pass (datacube.Plan). The import is hoisted out so the
// numbers compare pure pipeline execution.
func BenchmarkFusedVsEagerPipeline(b *testing.B) {
	g := grid.Grid{NLat: 32, NLon: 64}
	const days = 20
	model := esm.NewModel(esm.Config{Grid: g, Years: 1, DaysPerYear: days, Seed: 7, Events: benchEvents})
	files, err := model.Run(esm.RunOptions{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	engine := datacube.NewEngine(datacube.Config{Servers: 2})
	defer engine.Close()
	baseline, err := indices.BuildBaseline(engine, g, days)
	if err != nil {
		b.Fatal(err)
	}
	temp, err := engine.ImportFiles(files, "TREFHT", "time")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		eager bool
	}{{"eager", true}, {"fused", false}} {
		b.Run(mode.name, func(b *testing.B) {
			params := indices.Params{DaysPerYear: days, Eager: mode.eager}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := indices.HeatWavesFromCube(temp, baseline, params)
				if err != nil {
					b.Fatal(err)
				}
				_ = res.Duration.Delete()
				_ = res.Number.Delete()
				_ = res.Frequency.Delete()
			}
		})
	}
}

// BenchmarkPyramidFrontier is experiment F6: the coarse-first tolerance
// frontier over the resolution pyramid (DESIGN.md §15), on the
// cloud-cover climatology pipeline — a field smooth enough at tier
// granularity for coarse blocks to genuinely accept. Each sub-benchmark
// reports cells/op (array elements touched, the deterministic cost
// metric) alongside walltime.
func BenchmarkPyramidFrontier(b *testing.B) {
	g := grid.Grid{NLat: 32, NLon: 64}
	const days = 20
	model := esm.NewModel(esm.Config{Grid: g, Years: 1, DaysPerYear: days, Seed: 7, Events: benchEvents})
	files, err := model.Run(esm.RunOptions{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	engine := datacube.NewEngine(datacube.Config{Servers: 2})
	defer engine.Close()
	cld, err := engine.ImportFiles(files, "CLDTOT", "time")
	if err != nil {
		b.Fatal(err)
	}
	for _, eps := range []float64{0, 0.02, 0.1, 0.2} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			before := engine.Stats().CellsProcessed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				outs, err := cld.Lazy().Tolerance(eps).ExecuteBranches(
					datacube.Branch().Reduce("avg"),
					datacube.Branch().Reduce("max"),
				)
				if err != nil {
					b.Fatal(err)
				}
				for _, o := range outs {
					_ = o.Delete()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(engine.Stats().CellsProcessed-before)/float64(b.N), "cells/op")
		})
	}
}

// BenchmarkE2EConcurrentVsSequential is experiment C1: the integrated
// workflow overlaps analysis with the (latency-dominated) simulation.
func BenchmarkE2EConcurrentVsSequential(b *testing.B) {
	mk := func(years int) core.Config {
		cfg := benchConfig(b, years)
		cfg.ESMDayDelay = 10 * time.Millisecond
		cfg.FragmentLatency = 3 * time.Millisecond
		return cfg
	}
	for _, years := range []int{1, 2} {
		b.Run(fmt.Sprintf("sequential/years=%d", years), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RunSequential(mk(years)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("concurrent/years=%d", years), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(mk(years)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaselineReuse is experiment C2: index pipelines with the
// climatology baseline resident in memory vs re-imported each time.
func BenchmarkBaselineReuse(b *testing.B) {
	g := grid.Grid{NLat: 32, NLon: 64}
	const days = 20
	model := esm.NewModel(esm.Config{Grid: g, Years: 1, DaysPerYear: days, Seed: 7, Events: benchEvents})
	files, err := model.Run(esm.RunOptions{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	baseDir := b.TempDir()
	prep := datacube.NewEngine(datacube.Config{Servers: 2})
	bl, err := indices.BuildBaseline(prep, g, days)
	if err != nil {
		b.Fatal(err)
	}
	if err := bl.TMax.ExportFile(filepath.Join(baseDir, "tmax.nc")); err != nil {
		b.Fatal(err)
	}
	if err := bl.TMin.ExportFile(filepath.Join(baseDir, "tmin.nc")); err != nil {
		b.Fatal(err)
	}
	prep.Close()
	params := indices.Params{DaysPerYear: days}

	load := func(engine *datacube.Engine) *indices.Baseline {
		tmax, err := engine.ImportFile(filepath.Join(baseDir, "tmax.nc"), "TMAX_CLIM", "dayofyear")
		if err != nil {
			b.Fatal(err)
		}
		tmin, err := engine.ImportFile(filepath.Join(baseDir, "tmin.nc"), "TMIN_CLIM", "dayofyear")
		if err != nil {
			b.Fatal(err)
		}
		return &indices.Baseline{TMax: tmax, TMin: tmin, Grid: g, DaysPerYear: days}
	}
	free := func(r *indices.Result) {
		_ = r.Duration.Delete()
		_ = r.Number.Delete()
		_ = r.Frequency.Delete()
	}

	b.Run("reuse", func(b *testing.B) {
		engine := datacube.NewEngine(datacube.Config{Servers: 2})
		defer engine.Close()
		bl := load(engine)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := indices.HeatWaves(engine, files, bl, params)
			if err != nil {
				b.Fatal(err)
			}
			free(r)
		}
		b.ReportMetric(float64(engine.Stats().FileReads)/float64(b.N), "file-reads/op")
	})
	b.Run("reimport", func(b *testing.B) {
		engine := datacube.NewEngine(datacube.Config{Servers: 2})
		defer engine.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bl := load(engine)
			r, err := indices.HeatWaves(engine, files, bl, params)
			if err != nil {
				b.Fatal(err)
			}
			free(r)
			_ = bl.TMax.Delete()
			_ = bl.TMin.Delete()
		}
		b.ReportMetric(float64(engine.Stats().FileReads)/float64(b.N), "file-reads/op")
	})
}

// BenchmarkCubeScaling is experiment C3: operator latency vs the number
// of I/O servers, with per-fragment storage latency as on a
// distributed deployment.
func BenchmarkCubeScaling(b *testing.B) {
	for _, servers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			engine := datacube.NewEngine(datacube.Config{
				Servers: servers, FragmentsPerCube: 32,
				FragmentLatency: time.Millisecond,
			})
			defer engine.Close()
			cube, err := engine.NewCubeFromFunc("m",
				[]datacube.Dimension{{Name: "cell", Size: 4096}},
				datacube.Dimension{Name: "time", Size: 64},
				func(row, t int) float32 { return float32(row + t) })
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := cube.Reduce("max")
				if err != nil {
					b.Fatal(err)
				}
				_ = out.Delete()
			}
		})
	}
}

// BenchmarkClusterShardSweep extends C3 across the sharded datacube
// cluster: the same fused pipeline (apply, reduce, aggrows barrier)
// dispatched through the coordinator at 1/2/4/8 shards. The global
// fragment count is held constant — each shard owns 32/shards
// fragments of the leading dimension — so the per-shard simulated
// storage latency shrinks as shards are added, while only reduced
// partials return at the barrier.
func BenchmarkClusterShardSweep(b *testing.B) {
	dir := b.TempDir()
	ds := ncdf.NewDataset()
	const lat, lon, steps = 512, 8, 64
	for _, d := range []struct {
		name string
		size int
	}{{"lat", lat}, {"lon", lon}, {"time", steps}} {
		if err := ds.AddDim(d.name, d.size); err != nil {
			b.Fatal(err)
		}
	}
	data := make([]float32, lat*lon*steps)
	for i := range data {
		data[i] = float32((i * 7) % 97)
	}
	if _, err := ds.AddVar("T", []string{"lat", "lon", "time"}, data); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "field.nc")
	if err := ncdf.WriteFile(path, ds); err != nil {
		b.Fatal(err)
	}
	pipe := []cubeserver.PipelineStep{
		{Op: "apply", Expr: "x>50 ? x : 0"},
		{Op: "reduce", RowOp: "sum"},
		{Op: "aggrows", RowOp: "avg"},
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cl, err := cubecluster.NewLocal(cubecluster.Config{
				Shards: shards,
				Engine: datacube.Config{
					Servers: 1, FragmentsPerCube: 32 / shards,
					FragmentLatency: time.Millisecond,
				},
				SpoolDir: b.TempDir(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			imp := cl.Dispatch(&cubeserver.Request{
				Op: "importfiles", Paths: []string{path}, Var: "T", ImplicitDim: "time",
			})
			if err := cubeserver.ResponseError(imp); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp := cl.Dispatch(&cubeserver.Request{Op: "pipeline", CubeID: imp.Shape.CubeID, Pipeline: pipe})
				if err := cubeserver.ResponseError(resp); err != nil {
					b.Fatal(err)
				}
				cl.Dispatch(&cubeserver.Request{Op: "delete", CubeID: resp.Shape.CubeID})
			}
			_, gathered := cl.BytesStats()
			b.ReportMetric(gathered/float64(b.N), "gathered-B/op")
		})
	}
}

// BenchmarkWireCodec measures the cubeserver wire codec on the
// bulk-payload path: a putcube request carrying 1 KB / 1 MB / 16 MB of
// float32 cells through the v2 binary framing (raw little-endian float
// blocks, no reflection). Throughput is payload MB/s for one
// encode+decode round trip.
func BenchmarkWireCodec(b *testing.B) {
	sizes := []struct {
		name       string
		rows, cols int
	}{
		{"1KB", 1, 256},
		{"1MB", 512, 512},
		{"16MB", 2048, 2048},
	}
	for _, sz := range sizes {
		values := make([][]float32, sz.rows)
		for r := range values {
			row := make([]float32, sz.cols)
			for c := range row {
				row[c] = float32((r*sz.cols+c)%97) * 0.5
			}
			values[r] = row
		}
		req := &cubeserver.Request{
			Op: "putcube", Var: "T", ImplicitDim: "time",
			Dims:   []datacube.Dimension{{Name: "cell", Size: sz.rows}},
			Values: values,
		}
		payload := int64(sz.rows) * int64(sz.cols) * 4
		b.Run("v2/"+sz.name, func(b *testing.B) {
			var scratch []byte
			var out cubeserver.Request
			b.SetBytes(payload)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scratch = cubeserver.AppendRequestV2(scratch[:0], req)
				if err := cubeserver.DecodeRequestV2(scratch, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFragmentSweep is the DESIGN.md fragment-count ablation.
// Finding: with a fixed per-fragment access latency, total operator
// latency grows linearly with fragments beyond the server count —
// over-fragmentation pays pure per-access overhead, so the sweet spot
// is a small multiple of the server count (exactly the fragmentation
// guidance Ophidia documents).
func BenchmarkFragmentSweep(b *testing.B) {
	for _, frags := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("frags=%d", frags), func(b *testing.B) {
			engine := datacube.NewEngine(datacube.Config{
				Servers: 4, FragmentsPerCube: frags,
				FragmentLatency: time.Millisecond,
			})
			defer engine.Close()
			cube, err := engine.NewCubeFromFunc("m",
				[]datacube.Dimension{{Name: "cell", Size: 4096}},
				datacube.Dimension{Name: "time", Size: 64},
				func(row, t int) float32 { return float32(row + t) })
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := cube.Reduce("max")
				if err != nil {
					b.Fatal(err)
				}
				_ = out.Delete()
			}
		})
	}
}

// BenchmarkRuntimeThroughput is experiment C4: independent
// latency-bound tasks complete faster as workers are added.
func BenchmarkRuntimeThroughput(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := compss.NewRuntime(compss.Config{Workers: workers})
				task, err := rt.Register(compss.TaskDef{
					Name:    "remote",
					Outputs: 0,
					Fn: func([]any) ([]any, error) {
						time.Sleep(time.Millisecond)
						return nil, nil
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 64; j++ {
					if _, err := rt.Invoke(task); err != nil {
						b.Fatal(err)
					}
				}
				if err := rt.Shutdown(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulerOverhead measures the runtime's per-task cost with
// empty task bodies (pure dependency bookkeeping + dispatch).
func BenchmarkSchedulerOverhead(b *testing.B) {
	rt := compss.NewRuntime(compss.Config{Workers: 4})
	nop, err := rt.Register(compss.TaskDef{
		Name:    "nop",
		Outputs: 0,
		Fn:      func([]any) ([]any, error) { return nil, nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Invoke(nop); err != nil {
			b.Fatal(err)
		}
	}
	if err := rt.Shutdown(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCNNInference is the C5 cost figure: one patch prediction
// through the TC localizer CNN.
func BenchmarkCNNInference(b *testing.B) {
	loc, err := ml.NewLocalizer(12, 12, 7)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := ml.NewTensor(len(ml.Channels), 12, 12)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = loc.Predict(x)
	}
}

// BenchmarkCNNInferenceBatched compares the layer-by-layer reference
// with the compiled im2col/GEMM engine at a realistic per-step patch
// count (the 48×96 grid tiles into 32 12×12 patches). Per-patch cost
// is reported as ns/patch; the batched path must be zero-alloc.
func BenchmarkCNNInferenceBatched(b *testing.B) {
	const patches = 32
	rng := rand.New(rand.NewSource(1))
	x := ml.NewTensor(patches, len(ml.Channels), 12, 12)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	perPatch := len(ml.Channels) * 12 * 12

	b.Run("reference", func(b *testing.B) {
		loc, err := ml.NewLocalizer(12, 12, 7)
		if err != nil {
			b.Fatal(err)
		}
		loc.Configure(ml.Params{Reference: true})
		one := ml.NewTensor(len(ml.Channels), 12, 12)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for p := 0; p < patches; p++ {
				copy(one.Data, x.Data[p*perPatch:(p+1)*perPatch])
				_ = loc.Predict(one)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*patches), "ns/patch")
	})
	b.Run("batched", func(b *testing.B) {
		loc, err := ml.NewLocalizer(12, 12, 7)
		if err != nil {
			b.Fatal(err)
		}
		s, err := loc.Compile(ml.Params{MaxBatch: patches})
		if err != nil {
			b.Fatal(err)
		}
		s.PredictBatch(x) // warm the session buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.PredictBatch(x)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*patches), "ns/patch")
	})
}

// BenchmarkCNNTrainStep is one forward+backward pass through the layer
// path (the ReLU/MaxPool buffer-reuse beneficiary).
func BenchmarkCNNTrainStep(b *testing.B) {
	loc, err := ml.NewLocalizer(12, 12, 7)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := ml.NewTensor(len(ml.Channels), 12, 12)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	grad := ml.NewTensor(3)
	grad.Data[0], grad.Data[1], grad.Data[2] = 0.5, 0.1, -0.1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = loc.Net.Forward(x)
		loc.Net.Backward(grad)
	}
}

// BenchmarkDetectStep is the end-to-end per-step sweep on real model
// fields: channel extraction, standardization, batched parallel
// inference and geo-referencing.
func BenchmarkDetectStep(b *testing.B) {
	m := esm.NewModel(esm.Config{
		Grid: grid.Grid{NLat: 48, NLon: 96}, StartYear: 2040, Years: 1, DaysPerYear: 30, Seed: 42,
		Events: &esm.EventConfig{CyclonesPerYear: 4, WaveAmplitudeK: 8, WaveMinDays: 6, WaveMaxDays: 6},
	})
	var day *esm.DayOutput
	for i := 0; i < 5; i++ {
		day = m.StepDay()
	}
	for _, mode := range []struct {
		name string
		p    ml.Params
	}{
		{"reference", ml.Params{Reference: true}},
		{"engine", ml.Params{}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			loc, err := ml.NewLocalizer(12, 12, 7)
			if err != nil {
				b.Fatal(err)
			}
			loc.Configure(mode.p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := loc.DetectStep(day, 0, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointOverhead is experiment C6: the task runtime with
// and without checkpoint recording.
func BenchmarkCheckpointOverhead(b *testing.B) {
	run := func(b *testing.B, cp compss.Checkpointer) {
		for i := 0; i < b.N; i++ {
			rt := compss.NewRuntime(compss.Config{Workers: 2, Checkpointer: cp})
			task, err := rt.Register(compss.TaskDef{
				Name:    fmt.Sprintf("step%d", i),
				Outputs: 1,
				Fn:      func(args []any) ([]any, error) { return []any{args[0]}, nil },
			})
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 50; j++ {
				if _, err := rt.Invoke(task, compss.In(j)); err != nil {
					b.Fatal(err)
				}
			}
			if err := rt.Shutdown(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("no-checkpoint", func(b *testing.B) { run(b, nil) })
	b.Run("file-checkpoint", func(b *testing.B) {
		cp, err := compss.OpenFileCheckpointer(filepath.Join(b.TempDir(), "b.ckpt"))
		if err != nil {
			b.Fatal(err)
		}
		defer cp.Close()
		run(b, cp)
	})
}

// BenchmarkStreamDetectLatency is experiment C7: time from the last
// daily file of a year landing on disk to the year batch being emitted.
func BenchmarkStreamDetectLatency(b *testing.B) {
	const days = 5
	var total time.Duration
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		w, err := stream.NewDirWatcher(dir, `\.nc$`)
		if err != nil {
			b.Fatal(err)
		}
		w.Interval = time.Millisecond
		w.Start()
		batcher := stream.NewYearBatcher(days, esm.YearOf)
		for d := 0; d < days; d++ {
			if err := os.WriteFile(filepath.Join(dir, esm.FileName(2040, d)), []byte("x"), 0o644); err != nil {
				b.Fatal(err)
			}
		}
		t0 := time.Now()
		done := false
		for !done {
			path, ok := w.Stream().Next()
			if !ok {
				b.Fatal("stream closed early")
			}
			if len(batcher.Add(path)) > 0 {
				done = true
			}
		}
		total += time.Since(t0)
		w.Stop()
	}
	b.ReportMetric(float64(total.Microseconds())/float64(b.N), "detect-µs")
}

// BenchmarkLocalityPlacement is the DESIGN.md ablation: scheduling
// consumers on the node already holding their input data vs random
// placement, measured as bytes moved on the simulated cluster.
func BenchmarkLocalityPlacement(b *testing.B) {
	const items = 64
	run := func(b *testing.B, locality bool) {
		var moved int64
		for i := 0; i < b.N; i++ {
			c := cluster.New(4, 8, 16384)
			rng := rand.New(rand.NewSource(int64(i)))
			names := c.NodeNames()
			for k := 0; k < items; k++ {
				key := fmt.Sprintf("cube%d", k)
				owner := names[rng.Intn(len(names))]
				if err := c.Place(key, owner, 1<<20); err != nil {
					b.Fatal(err)
				}
				var target string
				if locality {
					target = c.BestNodeFor([]string{key})
				} else {
					target = names[rng.Intn(len(names))]
				}
				if _, _, err := c.Fetch(key, target); err != nil {
					b.Fatal(err)
				}
			}
			moved += c.Stats().BytesMoved
		}
		b.ReportMetric(float64(moved)/float64(b.N)/(1<<20), "MB-moved/op")
	}
	b.Run("locality-aware", func(b *testing.B) { run(b, true) })
	b.Run("random", func(b *testing.B) { run(b, false) })
}

// BenchmarkBackfillAblation compares batch-scheduler makespans with
// and without LSF-style backfill on a mixed wide/narrow job stream
// (virtual time; the cluster simulation advances event to event).
func BenchmarkBackfillAblation(b *testing.B) {
	workload := func(c *cluster.Cluster, rng *rand.Rand) {
		for k := 0; k < 200; k++ {
			if rng.Intn(6) == 0 {
				// full-node jobs block the FIFO head while cores sit idle
				_, _ = c.Submit("wide", cluster.Resources{Cores: 8}, 10)
			} else {
				_, _ = c.Submit("narrow", cluster.Resources{Cores: 1}, 1+rng.Float64())
			}
		}
	}
	for _, backfill := range []bool{true, false} {
		name := "backfill"
		if !backfill {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			var makespan, wait float64
			for i := 0; i < b.N; i++ {
				c := cluster.New(4, 8, 65536)
				c.Backfill = backfill
				workload(c, rand.New(rand.NewSource(42)))
				makespan = c.Drain()
				wait = c.Stats().TotalWait
			}
			b.ReportMetric(makespan, "virt-makespan")
			b.ReportMetric(wait, "virt-totalwait")
			b.ReportMetric(0, "ns/op") // virtual-time study; wall time is noise
		})
	}
}

// BenchmarkESMDay measures one simulated day of the coupled model
// (reduced grid), the producer side of the whole pipeline.
func BenchmarkESMDay(b *testing.B) {
	model := esm.NewModel(esm.Config{Grid: grid.Reduced, Years: 1000, DaysPerYear: 365, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := model.StepDay(); d == nil {
			b.Fatal("model exhausted")
		}
	}
}

// BenchmarkTrackerDetect measures the deterministic TC detector on one
// instantaneous field set.
func BenchmarkTrackerDetect(b *testing.B) {
	model := esm.NewModel(esm.Config{
		Grid: grid.Grid{NLat: 48, NLon: 96}, Years: 1, DaysPerYear: 10, Seed: 3,
		Events: &esm.EventConfig{CyclonesPerYear: 2, WaveAmplitudeK: 8, WaveMinDays: 6, WaveMaxDays: 6},
	})
	var day *esm.DayOutput
	for i := 0; i < 5; i++ {
		day = model.StepDay()
	}
	crit := tctrack.DefaultCriteria()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tctrack.DetectStep(day, 0, crit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkESMHandoff measures the ESM→consumer handoff of one
// simulated day's TC-branch variables three ways: through the file
// system (write the daily NetCDF, read it back, decode the variables —
// the pre-texchange hot path), through the in-memory tensor exchange
// (zero-copy publish + wait), and through an exchange squeezed under a
// tiny memory budget so every tensor round-trips the spill file. The
// gap between "file" and "exchange" is the latency the SmartSim-style
// handoff removes; "exchange-spill" bounds the worst case when the
// budget is exhausted.
func BenchmarkESMHandoff(b *testing.B) {
	g := grid.Grid{NLat: 48, NLon: 96}
	handoffVars := []string{"PSL", "U850", "V850", "VORT850", "T500"}
	model := esm.NewModel(esm.Config{
		Grid: g, Years: 1, DaysPerYear: 4, Seed: 7,
		Events: &esm.EventConfig{CyclonesPerYear: 2, WaveAmplitudeK: 8, WaveMinDays: 6, WaveMaxDays: 6},
	})
	var days []*esm.DayOutput
	var datasets []*ncdf.Dataset
	for {
		d := model.StepDay()
		if d == nil {
			break
		}
		ds, err := d.ToDataset()
		if err != nil {
			b.Fatal(err)
		}
		days, datasets = append(days, d), append(datasets, ds)
	}
	dayBytes := int64(len(handoffVars) * esm.StepsPerDay * g.NLat * g.NLon * 4)
	perOp := dayBytes * int64(len(days))

	consume := func(perVar map[string][]float32) float32 {
		var s float32
		for _, v := range handoffVars {
			s += perVar[v][0]
		}
		return s
	}

	b.Run("file", func(b *testing.B) {
		dir := b.TempDir()
		b.SetBytes(perOp)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range days {
				path, err := d.WriteDay(dir)
				if err != nil {
					b.Fatal(err)
				}
				ds, err := ncdf.ReadFile(path)
				if err != nil {
					b.Fatal(err)
				}
				perVar := make(map[string][]float32, len(handoffVars))
				for _, v := range handoffVars {
					vv, err := ds.Var(v)
					if err != nil {
						b.Fatal(err)
					}
					perVar[v] = vv.Data
				}
				_ = consume(perVar)
			}
		}
	})

	runExchange := func(b *testing.B, cfg texchange.Config) {
		x := texchange.New(cfg)
		defer x.Close()
		ctx := context.Background()
		b.SetBytes(perOp)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for di, d := range days {
				for _, v := range handoffVars {
					vv, err := datasets[di].Var(v)
					if err != nil {
						b.Fatal(err)
					}
					t := texchange.Tensor{
						Name:  fmt.Sprintf("bench/d%03d/%s", d.DayOfYear, v),
						Shape: []int{esm.StepsPerDay, g.NLat, g.NLon},
						Data:  vv.Data,
					}
					if _, err := x.Publish(t); err != nil {
						b.Fatal(err)
					}
				}
				perVar := make(map[string][]float32, len(handoffVars))
				for _, v := range handoffVars {
					t, err := x.Wait(ctx, fmt.Sprintf("bench/d%03d/%s", d.DayOfYear, v), 1)
					if err != nil {
						b.Fatal(err)
					}
					perVar[v] = t.Data
				}
				_ = consume(perVar)
				for _, v := range handoffVars {
					x.Remove(fmt.Sprintf("bench/d%03d/%s", d.DayOfYear, v))
				}
			}
		}
	}

	b.Run("exchange", func(b *testing.B) {
		runExchange(b, texchange.Config{})
	})
	b.Run("exchange-spill", func(b *testing.B) {
		// Budget below one tensor's payload: every publish evicts, every
		// wait loads the payload back from the spill file.
		runExchange(b, texchange.Config{Budget: 1, SpillDir: b.TempDir()})
	})
}

// BenchmarkExecQueueThroughput measures the HPCWaaS execution queue's
// job throughput across a worker-pool sweep (the admission-control
// subsystem in front of the Execution API): no-op jobs isolate the
// queue's own dispatch overhead.
func BenchmarkExecQueueThroughput(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			q, err := execq.New(execq.Config{Workers: workers, QueueDepth: b.N + workers})
			if err != nil {
				b.Fatal(err)
			}
			defer q.Close()
			run := func(ctx context.Context) error { return nil }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Submit(execq.Job{Run: run}); err != nil {
					b.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := q.WaitIdle(ctx); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}
