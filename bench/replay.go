package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cubeserver"
	"repro/internal/datacube"
	"repro/internal/esm"
	"repro/internal/execstore"
	"repro/internal/indices"
	"repro/internal/ml"
	"repro/internal/ncdf"
	"repro/internal/stream"
	"repro/internal/tctrack"
	"repro/internal/viz"
)

// The staged replay belongs to the traced run: the benchmark itself
// calls each layer's public function on the inputs the workloads use,
// from one goroutine, under a span, and reports the median of a few
// repeats. These are per-layer readings for attribution, not end-to-end
// metrics.

// timed runs f n times under a span and returns the median seconds.
func (b *bench) timed(parent int, name string, n int, f func() error) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		h := b.rec.begin(name, "replay", parent)
		t0 := time.Now()
		err := f()
		secs = append(secs, time.Since(t0).Seconds())
		b.rec.end(h)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(secs), nil
}

// replayWF times the layers under the workflow one call at a time: the
// ESM step, dataset conversion, the daily-file writer and reader, the
// directory watcher, the year import, the index pipelines, the two TC
// detectors and the map writer.
func (b *bench) replayWF(fx *wfFixture, root int) error {
	n := b.sz.replayRepeats
	sz := b.sz
	dir := filepath.Join(b.root, "replay")
	if err := mkdir(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	model := esm.NewModel(esm.Config{Grid: sz.grid, Years: 1, DaysPerYear: sz.days, Seed: b.seed})
	var day *esm.DayOutput
	s, err := b.timed(root, "esm.StepDay", n, func() error { day = model.StepDay(); return nil })
	if err != nil {
		return err
	}
	b.col.set("esm.step_day_ms", ms(s), n)
	if s, err = b.timed(root, "esm.ToDataset", n, func() error { _, err := day.ToDataset(); return err }); err != nil {
		return err
	}
	toDataset := s
	b.col.set("esm.to_dataset_ms", ms(s), n)

	var path string
	if s, err = b.timed(root, "ncdf.WriteDay", n, func() (err error) { path, err = day.WriteDay(dir); return err }); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fileMB := float64(fi.Size()) / 1e6
	// WriteDay converts and then writes; the writer's share is the rest
	b.col.set("ncdf.write_mb_per_s", fileMB/(s-toDataset), n)
	b.col.set("ncdf.write_bytes_per_day", float64(fi.Size()), 1)
	if s, err = b.timed(root, "ncdf.ReadVariableFile", n, func() error { _, _, err := ncdf.ReadVariableFile(path, "PSL"); return err }); err != nil {
		return err
	}
	b.col.set("ncdf.read_var_ms", ms(s), n)
	if s, err = b.timed(root, "ncdf.ReadFile", n, func() error { _, err := ncdf.ReadFile(path); return err }); err != nil {
		return err
	}
	b.col.set("ncdf.read_file_ms", ms(s), n)
	b.col.set("ncdf.decode_mb_per_s", fileMB/s, n)

	// stream: rename a file into a watched directory → Next returns
	watched := filepath.Join(dir, "watched")
	if err := mkdir(watched); err != nil {
		return err
	}
	w, err := stream.NewDirWatcher(watched, `\.nc$`)
	if err != nil {
		return err
	}
	w.Start()
	k := 0
	s, err = b.timed(root, "stream.detect", 4*n, func() error {
		k++
		staged := filepath.Join(dir, fmt.Sprintf("staged-%d", k))
		if err := os.WriteFile(staged, []byte("x"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(staged, filepath.Join(watched, fmt.Sprintf("f%03d.nc", k))); err != nil {
			return err
		}
		if _, ok := w.Stream().Next(); !ok {
			return fmt.Errorf("watcher stream closed")
		}
		return nil
	})
	w.Stop()
	if err != nil {
		return err
	}
	b.col.set("stream.detect_lag_ms", ms(s), 4*n)

	// datacube + indices on one year of the reference run's model output
	files, err := filepath.Glob(filepath.Join(fx.modelDir, fmt.Sprintf("cm3_%04d_d*.nc", fx.ref[0].year)))
	if err != nil || len(files) != sz.days {
		return fmt.Errorf("replay: %d model files of year %d, want %d (%v)", len(files), fx.ref[0].year, sz.days, err)
	}
	sort.Strings(files)
	engine := datacube.NewEngine(datacube.Config{Servers: clients})
	defer engine.Close()
	var temp *datacube.Cube
	if s, err = b.timed(root, "datacube.ImportFiles", n, func() error {
		if temp != nil {
			if err := temp.Delete(); err != nil {
				return err
			}
		}
		var err error
		temp, err = engine.ImportFiles(files, "TREFHT", "time")
		return err
	}); err != nil {
		return err
	}
	cells := float64(sz.grid.Size() * sz.days * esm.StepsPerDay)
	b.col.set("datacube.import_year_s", s, n)
	b.col.set("datacube.import_cells_per_s", cells/s, n)
	b.col.set("datacube.import_mb_per_s", cells*4/1e6/s, n)
	var base *indices.Baseline
	if s, err = b.timed(root, "indices.BuildBaseline", n, func() error {
		if base != nil {
			base.TMax.Delete()
			base.TMin.Delete()
		}
		var err error
		base, err = indices.BuildBaseline(engine, sz.grid, sz.days)
		return err
	}); err != nil {
		return err
	}
	b.col.set("indices.baseline_s", s, n)
	params := indices.Params{DaysPerYear: sz.days}
	for _, wave := range []struct {
		metric, span string
		f            func(*datacube.Cube, *indices.Baseline, indices.Params) (*indices.Result, error)
	}{
		{"indices.heatwave_year_s", "indices.HeatWavesFromCube", indices.HeatWavesFromCube},
		{"indices.coldwave_year_s", "indices.ColdWavesFromCube", indices.ColdWavesFromCube},
	} {
		if s, err = b.timed(root, wave.span, n, func() error {
			r, err := wave.f(temp, base, params)
			if err != nil {
				return err
			}
			for _, c := range []*datacube.Cube{r.Duration, r.Number, r.Frequency} {
				c.Delete()
			}
			return nil
		}); err != nil {
			return err
		}
		b.col.set(wave.metric, s, n)
	}

	// the two TC detectors on one instant, the map writer on one field
	fields, err := ml.ChannelFields(day, 0)
	if err != nil {
		return err
	}
	crit := tctrack.DefaultCriteria()
	if s, err = b.timed(root, "tctrack.DetectFields", 4*n, func() error {
		tctrack.DetectFields(fields["PSL"], fields["VORT850"], fields["T500"], day.DayOfYear, 0, crit)
		return nil
	}); err != nil {
		return err
	}
	b.col.set("tctrack.detect_step_ms", ms(s), 4*n)
	if s, err = b.timed(root, "ml.DetectFields", 4*n, func() error {
		_, err := fx.loc.DetectFields(fields, sz.grid, 0.5)
		return err
	}); err != nil {
		return err
	}
	b.col.set("ml.detect_fields_ms", ms(s), 4*n)
	b.col.set("ml.patches_per_s", float64((sz.grid.NLat/tcPatch)*(sz.grid.NLon/tcPatch))/s, 4*n)
	if s, err = b.timed(root, "viz.WritePPM", 4*n, func() error {
		return viz.WritePPM(filepath.Join(dir, "map.ppm"), fields["PSL"], 0, 0, viz.Heat)
	}); err != nil {
		return err
	}
	b.col.set("viz.write_ppm_ms", ms(s), 4*n)
	return nil
}

// replayQuery times the query path's layers from the inside out: the
// fused plan on one in-process engine, the v2 codec on the bulk
// payload, a ping, the coordinator called without the front hop, and
// one client through the front.
func (b *bench) replayQuery(fx *queryFixture, root int, perSAtP float64) error {
	n := b.sz.replayRepeats
	st0 := fx.refEngine.Stats()
	s, err := b.timed(root, "datacube.fused_plan", 4*n, func() error { _, err := fx.fusedOnEngine(); return err })
	if err != nil {
		return err
	}
	st1 := fx.refEngine.Stats()
	runs := float64(4 * n)
	b.col.set("datacube.fused_pass_ms", ms(s), 4*n)
	b.col.set("datacube.fused_cells_per_s", float64(b.sz.cubeRows()*b.sz.cubeSteps)/s, 4*n)
	b.col.set("datacube.cells_processed", float64(st1.CellsProcessed-st0.CellsProcessed)/runs, 4*n)
	b.col.set("datacube.ops", float64(st1.Ops-st0.Ops)/runs, 4*n)
	b.col.set("datacube.file_reads", float64(st1.FileReads), 1)

	payload := &cubeserver.Response{Values: fx.refTemp.Values()}
	var wire []byte
	if s, err = b.timed(root, "cubeserver.AppendResponseV2", n, func() error {
		wire = cubeserver.AppendResponseV2(wire[:0], payload)
		return nil
	}); err != nil {
		return err
	}
	b.col.set("cubeserver.codec_encode_mb_per_s", b.sz.cubeMB()/s, n)
	if s, err = b.timed(root, "cubeserver.DecodeResponseV2", n, func() error {
		return cubeserver.DecodeResponseV2(wire, &cubeserver.Response{})
	}); err != nil {
		return err
	}
	b.col.set("cubeserver.codec_decode_mb_per_s", b.sz.cubeMB()/s, n)
	if s, err = b.timed(root, "cubeserver.Ping", 20*n, fx.conns[0].Ping); err != nil {
		return err
	}
	b.col.set("cubeserver.ping_rtt_ms", ms(s), 20*n)

	// one caller, with and without the front hop
	direct := dispatchDoer(fx.cluster)
	var dq, fq, di, dv, fv []float64
	for i := 0; i < 8*n; i++ {
		d, err := b.fusedQuery(fx, direct, root)
		if err != nil {
			return err
		}
		f, err := b.fusedQuery(fx, fx.conns[0].Do, root)
		if err != nil {
			return err
		}
		dq, fq = append(dq, ms(d)), append(fq, ms(f))
	}
	for i := 0; i < 2*n; i++ {
		for _, m := range []struct {
			do   doer
			op   func(*queryFixture, doer, int) (float64, error)
			lats *[]float64
		}{{direct, b.bulkImport, &di}, {direct, b.bulkGather, &dv}, {fx.conns[0].Do, b.bulkGather, &fv}} {
			lat, err := m.op(fx, m.do, root)
			if err != nil {
				return err
			}
			*m.lats = append(*m.lats, ms(lat))
		}
	}
	b.col.set("cubecluster.dispatch_p50_ms", median(dq), len(dq))
	b.col.set("cubecluster.import_p50_ms", median(di), len(di))
	b.col.set("cubecluster.values_p50_ms", median(dv), len(dv))
	b.col.set("cubeserver.front_hop_ms", median(fq)-median(dq), len(fq))
	b.col.set("cubeserver.values_hop_ms", median(fv)-median(dv), len(fv))

	// throughput at P clients over throughput at one
	one := b.fusedStage(fx, 1, b.seconds/20, false)
	b.col.set("cubecluster.client_scaling", perSAtP/one, 1)
	return nil
}

// replayAPI times the execution store with no HTTP in front of it: a
// second journaled store, submit then lease + complete, one goroutine.
func (b *bench) replayAPI(root int) error {
	n := 200 * b.sz.replayRepeats
	dir := filepath.Join(b.root, "replay-store")
	if err := mkdir(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := execstore.Open(execstore.Config{
		MaxPending: apiCapacity, Retention: apiCapacity,
		JournalPath: filepath.Join(dir, "journal"), JournalMaxBytes: -1,
	})
	if err != nil {
		return err
	}
	defer store.Close()
	store.RegisterReplica("replay", 1)
	payload, _ := json.Marshal(map[string]string{"msg": "payload-0000000000000000-0000000000000000"})
	h := b.rec.begin("execstore.Submit", "replay", root)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := store.Submit(execstore.Task{Tenant: "anonymous", Kind: "fnv", Payload: payload}); err != nil {
			return err
		}
	}
	b.col.set("execstore.submit_direct_us", time.Since(t0).Seconds()*1e6/float64(n), n)
	b.rec.end(h)
	h = b.rec.begin("execstore.TryAcquire+Complete", "replay", root)
	t0 = time.Now()
	done := 0
	for done < n {
		leases := store.TryAcquire("replay", 1)
		if len(leases) == 0 {
			return fmt.Errorf("replay store handed out %d of %d leases", done, n)
		}
		for _, l := range leases {
			if err := store.Complete(l, json.RawMessage(`{"digest":"0"}`)); err != nil {
				return err
			}
			done++
		}
	}
	b.col.set("execstore.lease_complete_direct_us", time.Since(t0).Seconds()*1e6/float64(n), n)
	b.rec.end(h)
	return nil
}
