package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"repro/internal/compss"
	"repro/internal/core"
	"repro/internal/esm"
	"repro/internal/ml"
	"repro/internal/ncdf"
)

// tcPatch is the localizer patch size climatewf uses.
const tcPatch = 12

// yearRef is what the sequential, unfused reference produced for one
// simulated year.
type yearRef struct {
	year   int
	index  map[string][]float32 // variable name → values of the six index files
	tracks int
	dets   []ml.Detection
}

// wfFixture is the set-up of the workflow stages: the trained TC
// localizer and the reference run, whose model output doubles as the
// external producer's directory for attach-only runs.
type wfFixture struct {
	loc      *ml.Localizer
	modelDir string
	ref      []yearRef
}

// trainLocalizer follows the climatewf -tcmodel recipe (seeded storms
// from independent simulated years), scaled by the size preset.
func (b *bench) trainLocalizer() (*ml.Localizer, error) {
	seeds := make([]int64, b.sz.trainSeeds)
	for i := range seeds {
		seeds[i] = b.seed + 11 + int64(i)
	}
	cfg := esm.Config{
		Grid: b.sz.grid, Years: 1, DaysPerYear: b.sz.trainDays,
		Events: &esm.EventConfig{CyclonesPerYear: 6, WaveAmplitudeK: 8, WaveMinDays: 6, WaveMaxDays: 6},
	}
	samples, err := ml.SamplesFromSimulations(cfg, seeds, tcPatch, tcPatch)
	if err != nil {
		return nil, err
	}
	loc, err := ml.NewLocalizer(tcPatch, tcPatch, 7)
	if err != nil {
		return nil, err
	}
	if _, err := loc.Train(samples, ml.TrainConfig{Epochs: b.sz.trainEpochs, BatchSize: 32, LR: 2e-3, Seed: 5, Balance: true}); err != nil {
		return nil, err
	}
	return loc, nil
}

func (b *bench) wfConfig(fx *wfFixture, out string) core.Config {
	return core.Config{
		Grid: b.sz.grid, Years: b.sz.years, DaysPerYear: b.sz.days, Seed: b.seed,
		OutputDir: out, Workers: clients, CubeServers: clients, Localizer: fx.loc,
	}
}

func (b *bench) setupWF() (*wfFixture, error) {
	loc, err := b.trainLocalizer()
	if err != nil {
		return nil, fmt.Errorf("train localizer: %w", err)
	}
	fx := &wfFixture{loc: loc}
	// The reference is independent of what it checks: two-stage, no
	// task runtime, operator-at-a-time datacube execution.
	refDir := filepath.Join(b.root, "wf-ref")
	cfg := b.wfConfig(fx, refDir)
	unfused := false
	cfg.FuseOperators = &unfused
	res, err := core.RunSequential(cfg)
	if err != nil {
		return nil, fmt.Errorf("sequential reference: %w", err)
	}
	fx.modelDir = filepath.Join(refDir, "model_output")
	for _, yr := range res.Years {
		idx, err := readIndexFiles(yr)
		if err != nil {
			return nil, err
		}
		fx.ref = append(fx.ref, yearRef{year: yr.Year, index: idx, tracks: yr.TrackerTracks, dets: yr.CNNDetections})
	}
	return fx, nil
}

// readIndexFiles loads every variable of a year's six index files.
func readIndexFiles(yr core.YearResult) (map[string][]float32, error) {
	out := map[string][]float32{}
	for _, fs := range []core.IndexFiles{yr.HeatWave, yr.ColdWave} {
		for _, path := range []string{fs.Duration, fs.Number, fs.Frequency} {
			ds, err := ncdf.ReadFile(path)
			if err != nil {
				return nil, err
			}
			for _, name := range ds.VarNames() {
				v, err := ds.Var(name)
				if err != nil {
					return nil, err
				}
				out[name] = v.Data
			}
		}
	}
	return out, nil
}

func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// checkWF compares one workflow result to the reference: index
// variables bit-equal, tracker tracks and CNN detections equal.
func (fx *wfFixture) checkWF(res *core.Result) error {
	if len(res.Years) != len(fx.ref) {
		return fmt.Errorf("%d years, reference has %d", len(res.Years), len(fx.ref))
	}
	for i, yr := range res.Years {
		ref := fx.ref[i]
		if yr.Year != ref.year {
			return fmt.Errorf("year %d, reference has %d", yr.Year, ref.year)
		}
		idx, err := readIndexFiles(yr)
		if err != nil {
			return err
		}
		if len(idx) != len(ref.index) {
			return fmt.Errorf("year %d: %d index variables, reference has %d", yr.Year, len(idx), len(ref.index))
		}
		for name, want := range ref.index {
			if !bitEqual(idx[name], want) {
				return fmt.Errorf("year %d: index %s differs from the sequential reference", yr.Year, name)
			}
		}
		if yr.TrackerTracks != ref.tracks {
			return fmt.Errorf("year %d: %d tracks, reference has %d", yr.Year, yr.TrackerTracks, ref.tracks)
		}
		if len(yr.CNNDetections) != len(ref.dets) || (len(ref.dets) > 0 && !reflect.DeepEqual(yr.CNNDetections, ref.dets)) {
			return fmt.Errorf("year %d: CNN detections differ from the reference", yr.Year)
		}
	}
	return nil
}

// busyMetric maps a provenance task name to the per-layer busy metric it
// is summed into.
func busyMetric(task string) string {
	switch {
	case task == core.TaskESMRun:
		return "core.esm_run_busy_s"
	case strings.HasPrefix(task, "load_baseline"):
		return "core.baseline_busy_s"
	case task == core.TaskImportYear:
		return "core.import_year_busy_s"
	case strings.HasPrefix(task, "daily_t"), strings.HasPrefix(task, "hw_"), strings.HasPrefix(task, "cw_"), task == core.TaskValidateStore:
		return "core.index_busy_s"
	case task == core.TaskTCPreprocess:
		return "core.tc_preprocess_busy_s"
	case task == core.TaskTCInference:
		return "core.tc_inference_busy_s"
	case task == core.TaskTCGeoreference:
		return "core.tc_georeference_busy_s"
	case task == core.TaskFinalMaps:
		return "core.final_maps_busy_s"
	}
	return ""
}

var busyMetrics = []string{
	"core.esm_run_busy_s", "core.baseline_busy_s", "core.import_year_busy_s", "core.index_busy_s",
	"core.tc_preprocess_busy_s", "core.tc_inference_busy_s", "core.tc_georeference_busy_s", "core.final_maps_busy_s",
}

// readProvenance turns the run's provenance.json into the tail (last
// task end − esm_run end), busy seconds per task group, and child spans
// of the run span.
func (b *bench) readProvenance(path, id string, parent int) (tail float64, busy map[string]float64, total float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, 0, err
	}
	defer f.Close()
	prov, err := compss.ParseProvenance(f)
	if err != nil {
		return 0, nil, 0, err
	}
	busy = map[string]float64{}
	var esmEnd, last time.Time
	for _, t := range prov.Tasks {
		d := t.Ended.Sub(t.Started).Seconds()
		total += d
		if m := busyMetric(t.Name); m != "" {
			busy[m] += d
		}
		if t.Name == core.TaskESMRun {
			esmEnd = t.Ended
		}
		if t.Ended.After(last) {
			last = t.Ended
		}
		b.rec.add("core."+t.Name, id, parent, t.Started, t.Ended)
	}
	if !esmEnd.IsZero() {
		tail = last.Sub(esmEnd).Seconds()
	}
	return tail, busy, total, nil
}

// wfStage runs core.Run repeatedly for the stage's share of one round;
// the wf-attach stage replaces the in-process ESM by the reference run's
// model output. The stage that owns wf_makespan_s (attach in wf-attach,
// coupled everywhere else) also owns the per-layer task accounting; a
// coupled control beside an attach primary only contributes wf_tail_s.
func (b *bench) wfStage(fx *wfFixture, owner bool, p stagePlan) {
	attach := p.stage == "wf-attach"
	stage := b.rec.begin("bench.stage", p.stage, -1)
	defer b.rec.end(stage)
	warm := 0
	if p.primary && b.round == 0 {
		warm = 1 // lazy set-up and file cache settle on the first run
	}
	// as many runs as fit the round's share, to the nearest run
	start := time.Now()
	elapsed := func() float64 { return time.Since(start).Seconds() }
	for k := 0; k <= warm || elapsed()*(1+0.5/float64(k)) < p.seconds; k++ {
		id := fmt.Sprintf("wf-%d", b.nextID())
		out := filepath.Join(b.root, id)
		cfg := b.wfConfig(fx, out)
		if attach {
			cfg.AttachOnly = true
			cfg.ModelDir = fx.modelDir
		}
		run := b.rec.begin("bench.wf_run", id, stage)
		call := b.rec.begin("core.Run", id, run)
		t0 := time.Now()
		res, err := core.Run(cfg)
		makespan := time.Since(t0).Seconds()
		b.rec.end(call)
		if err == nil {
			err = fx.checkWF(res)
		}
		b.col.op(err, "workflow run")
		if err == nil && k >= warm {
			tail, busy, total, perr := b.readProvenance(res.ProvenancePath, id, call)
			if perr != nil {
				b.col.op(perr, "provenance")
			}
			if !attach {
				b.col.sample("wf_tail_s", tail)
			}
			if owner {
				b.col.sample("wf_makespan_s", makespan)
				for _, m := range busyMetrics {
					b.col.sample(m, busy[m])
				}
				b.col.sample("compss.tasks_done", float64(res.RuntimeStats.Done))
				b.col.sample("compss.worker_idle_share", 1-total/(clients*makespan))
			}
		}
		b.rec.end(run)
		// ≈ 1.4 MB of model output per simulated day: never keep two runs
		if err := os.RemoveAll(out); err != nil {
			b.col.op(err, "scratch removal")
		}
	}
}
