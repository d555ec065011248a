package core

import (
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/compss"
	"repro/internal/datacube"
	"repro/internal/esm"
	"repro/internal/grid"
	"repro/internal/indices"
	"repro/internal/ml"
	"repro/internal/ncdf"
	"repro/internal/stream"
	"repro/internal/tctrack"
	"repro/internal/viz"
)

// workflow carries the wiring of one Run.
type workflow struct {
	cfg    Config
	rt     *compss.Runtime
	engine *datacube.Engine

	// task definitions
	tESM, tBaseMax, tBaseMin, tMonitor *compss.TaskDef
	tImport, tDailyMax, tDailyMin      *compss.TaskDef
	tHWDur, tHWNum, tHWFreq            *compss.TaskDef
	tCWDur, tCWNum, tCWFreq            *compss.TaskDef
	tTCPre, tTCInf, tTCGeo             *compss.TaskDef
	tValidate, tFinal                  *compss.TaskDef
}

// stepFields is the per-instant field set the TC branch consumes.
type stepFields struct {
	Day, Step int
	Fields    map[string]*grid.Field
}

// yearTC is the TC branch output for one year.
type yearTC struct {
	Year        int
	Detections  []ml.Detection
	Tracks      int
	AgreementKm float64
}

// tcVars are the variables the TC branch reads from daily files.
var tcVars = []string{"PSL", "U850", "V850", "T500", "VORT850"}

// Checkpointable task outputs cross the gob boundary as interface
// values, so every concrete type a non-ephemeral task emits must be
// registered. Cube-producing tasks are marked Ephemeral instead: their
// outputs are live in-memory pointers that cannot outlast the process.
func init() {
	gob.Register([]string(nil))
	gob.Register(stream.YearBatch{})
	gob.Register([]ml.Detection(nil))
	gob.Register(yearTC{})
	gob.Register(YearResult{})
}

// Run executes the end-to-end workflow and returns its results.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.OutputDir == "" {
		return nil, fmt.Errorf("core: OutputDir is required")
	}
	for _, dir := range []string{cfg.OutputDir, cfg.ModelDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	engine := datacube.NewEngine(datacube.Config{
		Servers:         cfg.CubeServers,
		FragmentLatency: cfg.FragmentLatency,
		Metrics:         cfg.Metrics,
		Tracer:          cfg.Tracer,
	})
	defer engine.Close()
	rt := compss.NewRuntime(compss.Config{
		Workers:      cfg.Workers,
		Checkpointer: cfg.Checkpointer,
		Injector:     cfg.Injector,
		Seed:         cfg.Seed,
		Metrics:      cfg.Metrics,
		Tracer:       cfg.Tracer,
	})

	w := &workflow{cfg: cfg, rt: rt, engine: engine}
	if err := w.register(); err != nil {
		return nil, err
	}

	// #2/#3: the long-term climatology baselines, loaded once and kept
	// in memory for every year's pipelines (§5.3).
	baseMaxFut, err := rt.InvokeOne(w.tBaseMax)
	if err != nil {
		return nil, err
	}
	baseMinFut, err := rt.InvokeOne(w.tBaseMin)
	if err != nil {
		return nil, err
	}

	// #1: the ESM simulation task, producing one file per day. In
	// attach mode an external producer owns the model; the workflow
	// only consumes its output stream.
	var esmFut *compss.Future
	if !cfg.AttachOnly {
		model := esm.NewModel(cfg.esmConfig())
		esmFut, err = rt.InvokeOne(w.tESM, compss.In(model))
		if err != nil {
			return nil, err
		}
	}

	// #4 feed: watch the model output directory and group complete
	// years, while the simulation is still running (§5.2).
	watcher, err := stream.NewDirWatcher(cfg.ModelDir, `\.nc$`)
	if err != nil {
		return nil, err
	}
	watcher.Start()
	batcher := stream.NewYearBatcher(cfg.DaysPerYear, esm.YearOf)

	var validateFuts []*compss.Future
	dispatched := 0
	checkedGrid := false
	for dispatched < cfg.Years {
		path, ok := watcher.Stream().Next()
		if !ok {
			break
		}
		if !checkedGrid {
			// especially in attach mode the producer's grid is not under
			// our control; fail with a clear message instead of letting a
			// shape mismatch surface deep inside a task
			if err := checkFileGrid(path, cfg.Grid); err != nil {
				watcher.Stop()
				rt.Abort(err.Error())
				_ = rt.Shutdown()
				return nil, err
			}
			checkedGrid = true
		}
		for _, batch := range batcher.Add(path) {
			vf, err := w.wireYear(batch, baseMaxFut, baseMinFut)
			if err != nil {
				watcher.Stop()
				return nil, shutdownErr(rt, err)
			}
			validateFuts = append(validateFuts, vf)
			dispatched++
		}
	}
	watcher.Stop()
	if dispatched < cfg.Years {
		return nil, shutdownErr(rt, fmt.Errorf("core: only %d of %d years appeared in %s", dispatched, cfg.Years, cfg.ModelDir))
	}

	// Step 6: final maps over all validated years.
	finalParams := make([]compss.Param, 0, len(validateFuts))
	for _, f := range validateFuts {
		finalParams = append(finalParams, compss.In(f))
	}
	finalFut, err := rt.InvokeOne(w.tFinal, finalParams...)
	if err != nil {
		return nil, shutdownErr(rt, err)
	}

	if err := rt.Shutdown(); err != nil {
		return nil, err
	}

	// Assemble results.
	res := &Result{}
	if esmFut != nil {
		pathsAny, err := esmFut.Get()
		if err != nil {
			return nil, err
		}
		res.FilesProduced = len(pathsAny.([]string))
	} else {
		res.FilesProduced = cfg.Years * cfg.DaysPerYear
	}
	for _, vf := range validateFuts {
		v, err := vf.Get()
		if err != nil {
			return nil, err
		}
		yr := v.(YearResult)
		res.Years = append(res.Years, yr)
	}
	sort.Slice(res.Years, func(i, j int) bool { return res.Years[i].Year < res.Years[j].Year })
	fm, err := finalFut.Get()
	if err != nil {
		return nil, err
	}
	res.FinalMapPath = fm.(string)
	res.GraphDOT = rt.Graph().DOT("climate_extremes")
	res.CubeStats = engine.Stats()
	res.RuntimeStats = rt.Stats()

	// execution lineage: provenance document + Gantt quick look
	prov := rt.Provenance("climate-extremes")
	res.Gantt = prov.Gantt(72)
	res.ProvenancePath = fmt.Sprintf("%s/provenance.json", cfg.OutputDir)
	pf, err := os.Create(res.ProvenancePath)
	if err != nil {
		return nil, err
	}
	if err := prov.WriteJSON(pf); err != nil {
		pf.Close()
		return nil, err
	}
	if err := pf.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// shutdownErr drains the runtime and prefers its failure — which
// carries the root cause of an abort, e.g. chaos.ErrCrash on an
// injected crash — over the caller's invocation error.
func shutdownErr(rt *compss.Runtime, err error) error {
	if serr := rt.Shutdown(); serr != nil {
		return serr
	}
	return err
}

// register declares every task of Figures 2/3 on the runtime.
func (w *workflow) register() error {
	cfg := w.cfg
	engine := w.engine
	var err error
	reg := func(def compss.TaskDef) *compss.TaskDef {
		if err != nil {
			return nil
		}
		if def.Retries == 0 {
			def.Retries = cfg.TaskRetries
		}
		if def.Timeout == 0 {
			def.Timeout = cfg.TaskTimeout
		}
		var d *compss.TaskDef
		d, err = w.rt.Register(def)
		return d
	}

	// #1 — the coupled model run, writing one file per simulated day.
	w.tESM = reg(compss.TaskDef{
		Name:    TaskESMRun,
		Outputs: 1,
		Weight:  10,
		Fn: func(args []any) ([]any, error) {
			model := args[0].(*esm.Model)
			var diagErr error
			opts := esm.RunOptions{Dir: cfg.ModelDir, InterDayDelay: cfg.ESMDayDelay}
			if x := cfg.Exchange; x != nil {
				opts.OnDataset = func(_ string, d *esm.DayOutput, ds *ncdf.Dataset) error {
					return publishDay(x, d, ds)
				}
			}
			if cfg.OnlineDiagnostics {
				opts.OnDay = func(_ string, d *esm.DayOutput) {
					if diagErr != nil {
						return
					}
					diag, err := esm.Diagnose(d)
					if err == nil {
						err = esm.CheckDiagnostics(diag)
					}
					diagErr = err
				}
			}
			paths, err := model.Run(opts)
			if err != nil {
				return nil, err
			}
			if diagErr != nil {
				return nil, fmt.Errorf("core: online diagnostics: %w", diagErr)
			}
			return []any{paths}, nil
		},
	})

	// #2/#3 — climatology baselines (historical daily extrema).
	w.tBaseMax = reg(compss.TaskDef{
		Name:      TaskLoadBaselineMax,
		Outputs:   1,
		Ephemeral: true, // output is a live cube pointer
		Fn: func([]any) ([]any, error) {
			b, err := indices.BuildBaseline(engine, cfg.Grid, cfg.DaysPerYear)
			if err != nil {
				return nil, err
			}
			_ = b.TMin.Delete() // this task owns only the max side
			return []any{b.TMax}, nil
		},
	})
	w.tBaseMin = reg(compss.TaskDef{
		Name:      TaskLoadBaselineMin,
		Outputs:   1,
		Ephemeral: true,
		Fn: func([]any) ([]any, error) {
			b, err := indices.BuildBaseline(engine, cfg.Grid, cfg.DaysPerYear)
			if err != nil {
				return nil, err
			}
			_ = b.TMax.Delete()
			return []any{b.TMin}, nil
		},
	})

	// #4 — year-completeness detection (stream element passthrough).
	w.tMonitor = reg(compss.TaskDef{
		Name:    TaskMonitorStream,
		Outputs: 1,
		Fn: func(args []any) ([]any, error) {
			batch := args[0].(stream.YearBatch)
			if len(batch.Files) != cfg.DaysPerYear {
				return nil, fmt.Errorf("core: year %d has %d files, want %d", batch.Year, len(batch.Files), cfg.DaysPerYear)
			}
			return []any{batch}, nil
		},
	})

	// #5 — import the year's temperature into an in-memory cube.
	w.tImport = reg(compss.TaskDef{
		Name:      TaskImportYear,
		Outputs:   1,
		Ephemeral: true,
		Fn: func(args []any) ([]any, error) {
			batch := args[0].(stream.YearBatch)
			if x := cfg.Exchange; x != nil && !cfg.AttachOnly {
				if cube, err := importYearExchange(engine, x, batch, cfg.Grid); err == nil {
					return []any{cube}, nil
				}
				// any exchange miss: the files hold the same bytes
			}
			cube, err := engine.ImportFiles(batch.Files, "TREFHT", "time")
			if err != nil {
				return nil, err
			}
			return []any{cube}, nil
		},
	})

	// #6/#7 — daily extrema and anomaly against the resident baseline.
	// Fused mode folds both operators into one per-fragment pass; the
	// daily-extremum intermediate never materializes as a cube.
	fuse := cfg.fuse()
	dailyAnomaly := func(op string) compss.TaskFunc {
		return func(args []any) ([]any, error) {
			temp := args[0].(*datacube.Cube)
			baseline := args[1].(*datacube.Cube)
			if fuse {
				anom, err := temp.Lazy().
					ReduceGroup(op, esm.StepsPerDay).
					Intercube(baseline, "sub").
					Execute()
				if err != nil {
					return nil, err
				}
				return []any{anom}, nil
			}
			daily, err := temp.ReduceGroup(op, esm.StepsPerDay)
			if err != nil {
				return nil, err
			}
			anom, err := daily.Intercube(baseline, "sub")
			if err != nil {
				return nil, err
			}
			_ = daily.Delete()
			return []any{anom}, nil
		}
	}
	w.tDailyMax = reg(compss.TaskDef{Name: TaskDailyMax, Outputs: 1, Ephemeral: true, Fn: dailyAnomaly("max")})
	w.tDailyMin = reg(compss.TaskDef{Name: TaskDailyMin, Outputs: 1, Ephemeral: true, Fn: dailyAnomaly("min")})

	// #9..#14 — the six wave indices (Listing 1 operator chains).
	p := cfg.IndexParams
	durationTask := func(runOp string, th float64) compss.TaskFunc {
		return func(args []any) ([]any, error) {
			anom := args[0].(*datacube.Cube)
			if fuse {
				dur, err := anom.Lazy().
					Reduce(runOp, th).
					Apply(fmt.Sprintf("x>=%d ? x : 0", p.MinDays)).
					Execute()
				if err != nil {
					return nil, err
				}
				return []any{dur}, nil
			}
			longest, err := anom.Reduce(runOp, th)
			if err != nil {
				return nil, err
			}
			dur, err := longest.Apply(fmt.Sprintf("x>=%d ? x : 0", p.MinDays))
			if err != nil {
				return nil, err
			}
			_ = longest.Delete()
			return []any{dur}, nil
		}
	}
	numberTask := func(countOp string, th float64) compss.TaskFunc {
		return func(args []any) ([]any, error) {
			anom := args[0].(*datacube.Cube)
			num, err := anom.Reduce(countOp, th, float64(p.MinDays))
			if err != nil {
				return nil, err
			}
			return []any{num}, nil
		}
	}
	frequencyTask := func(daysOp string, th float64) compss.TaskFunc {
		return func(args []any) ([]any, error) {
			anom := args[0].(*datacube.Cube)
			if fuse {
				freq, err := anom.Lazy().
					Reduce(daysOp, th, float64(p.MinDays)).
					Apply(fmt.Sprintf("x/%d", p.DaysPerYear)).
					Execute()
				if err != nil {
					return nil, err
				}
				return []any{freq}, nil
			}
			days, err := anom.Reduce(daysOp, th, float64(p.MinDays))
			if err != nil {
				return nil, err
			}
			freq, err := days.Apply(fmt.Sprintf("x/%d", p.DaysPerYear))
			if err != nil {
				return nil, err
			}
			_ = days.Delete()
			return []any{freq}, nil
		}
	}
	w.tHWDur = reg(compss.TaskDef{Name: TaskHWDuration, Outputs: 1, Ephemeral: true, Fn: durationTask("longest_run_above", p.ThresholdK)})
	w.tHWNum = reg(compss.TaskDef{Name: TaskHWNumber, Outputs: 1, Ephemeral: true, Fn: numberTask("count_runs_above", p.ThresholdK)})
	w.tHWFreq = reg(compss.TaskDef{Name: TaskHWFrequency, Outputs: 1, Ephemeral: true, Fn: frequencyTask("days_in_runs_above", p.ThresholdK)})
	w.tCWDur = reg(compss.TaskDef{Name: TaskCWDuration, Outputs: 1, Ephemeral: true, Fn: durationTask("longest_run_below", -p.ThresholdK)})
	w.tCWNum = reg(compss.TaskDef{Name: TaskCWNumber, Outputs: 1, Ephemeral: true, Fn: numberTask("count_runs_below", -p.ThresholdK)})
	w.tCWFreq = reg(compss.TaskDef{Name: TaskCWFrequency, Outputs: 1, Ephemeral: true, Fn: frequencyTask("days_in_runs_below", -p.ThresholdK)})

	// #15 — TC pre-processing: read the dynamical fields per instant.
	w.tTCPre = reg(compss.TaskDef{
		Name:      TaskTCPreprocess,
		Outputs:   1,
		Ephemeral: true, // outputs hold live per-instant field maps
		Fn: func(args []any) ([]any, error) {
			batch := args[0].(stream.YearBatch)
			var steps []stepFields
			var err error
			if x := cfg.Exchange; x != nil && !cfg.AttachOnly {
				steps, err = loadTCFieldsExchange(x, batch.Files, cfg.Grid)
			} else {
				steps, err = loadTCFields(batch.Files, cfg.Grid)
			}
			if err != nil {
				return nil, err
			}
			return []any{steps}, nil
		},
	})

	// #16 — CNN inference over tiled, scaled patches.
	w.tTCInf = reg(compss.TaskDef{
		Name:    TaskTCInference,
		Outputs: 1,
		Fn: func(args []any) ([]any, error) {
			steps := args[0].([]stepFields)
			if cfg.Localizer == nil {
				return []any{[]ml.Detection(nil)}, nil
			}
			// the compiled engine is safe to share across per-year tasks
			// (each sweep borrows pooled sessions); only the reference
			// layer path keeps per-goroutine state and needs its own
			// network instance
			local := cfg.Localizer
			if !local.Compiled() {
				net, err := local.Net.Clone()
				if err != nil {
					return nil, err
				}
				local = &ml.Localizer{Net: net, PatchH: local.PatchH, PatchW: local.PatchW}
				local.Configure(ml.Params{Reference: true})
			}
			var dets []ml.Detection
			for _, sf := range steps {
				if sf.Step%2 != 0 {
					continue // inference cadence: every second step
				}
				d, err := local.DetectFields(sf.Fields, cfg.Grid, cfg.TCThreshold)
				if err != nil {
					return nil, err
				}
				dets = append(dets, d...)
			}
			return []any{dets}, nil
		},
	})

	// #17 — geo-referencing plus deterministic-tracker validation.
	w.tTCGeo = reg(compss.TaskDef{
		Name:    TaskTCGeoreference,
		Outputs: 1,
		Fn: func(args []any) ([]any, error) {
			steps := args[0].([]stepFields)
			dets, _ := args[1].([]ml.Detection)
			year := args[2].(int)
			tracker := tctrack.NewTracker()
			for _, sf := range steps {
				cand := tctrack.DetectFields(sf.Fields["PSL"], sf.Fields["VORT850"], sf.Fields["T500"], sf.Day, sf.Step, cfg.Criteria)
				tracker.Advance(cand)
				// Close the ML loop: feed the deterministic detections as
				// pseudo-labels so the trainer improves the localizer on
				// exactly the data the simulation is producing. Inference
				// cadence (even steps) keeps training and inference inputs
				// aligned; a full queue just drops the step.
				if tr := cfg.OnlineTrainer; tr != nil && sf.Step%2 == 0 {
					centers := make([]ml.Center, 0, len(cand))
					for _, c := range cand {
						ci, cj := cfg.Grid.CellOf(c.Lat, c.Lon)
						centers = append(centers, ml.Center{Row: ci, Col: cj})
					}
					tr.Feed(sf.Fields, centers)
				}
			}
			tracks := tracker.Finish()
			return []any{yearTC{
				Year:        year,
				Detections:  dets,
				Tracks:      len(tracks),
				AgreementKm: agreement(dets, tracks),
			}}, nil
		},
	})

	// #8 — validation, storage and the intermediate per-year map.
	w.tValidate = reg(compss.TaskDef{
		Name:    TaskValidateStore,
		Outputs: 1,
		Fn:      w.validateStore,
	})

	// Final maps across all years (step 6).
	w.tFinal = reg(compss.TaskDef{
		Name:    TaskFinalMaps,
		Outputs: 1,
		Fn: func(args []any) ([]any, error) {
			total := grid.NewField(cfg.Grid)
			years := 0
			for _, a := range args {
				yr, ok := a.(YearResult)
				if !ok {
					continue
				}
				ds, err := ncdf.ReadFile(yr.HeatWave.Number)
				if err != nil {
					return nil, err
				}
				v, err := ds.Var("heat_wave_number")
				if err != nil {
					return nil, err
				}
				for i := range total.Data {
					total.Data[i] += v.Data[i]
				}
				years++
			}
			if years == 0 {
				return nil, fmt.Errorf("core: no validated years for final map")
			}
			path := fmt.Sprintf("%s/heat_wave_number_all_years.ppm", cfg.OutputDir)
			if err := viz.WritePPM(path, total, 0, 0, viz.Heat); err != nil {
				return nil, err
			}
			return []any{path}, nil
		},
	})
	return err
}

// wireYear builds the per-year sub-graph (#4..#17 plus #8) and returns
// the validate_store future.
func (w *workflow) wireYear(batch stream.YearBatch, baseMax, baseMin *compss.Future) (*compss.Future, error) {
	rt := w.rt
	monitorFut, err := rt.InvokeOne(w.tMonitor, compss.In(batch))
	if err != nil {
		return nil, err
	}
	importFut, err := rt.InvokeOne(w.tImport, compss.In(monitorFut))
	if err != nil {
		return nil, err
	}
	dmax, err := rt.InvokeOne(w.tDailyMax, compss.In(importFut), compss.In(baseMax))
	if err != nil {
		return nil, err
	}
	dmin, err := rt.InvokeOne(w.tDailyMin, compss.In(importFut), compss.In(baseMin))
	if err != nil {
		return nil, err
	}
	hwDur, err := rt.InvokeOne(w.tHWDur, compss.In(dmax))
	if err != nil {
		return nil, err
	}
	hwNum, err := rt.InvokeOne(w.tHWNum, compss.In(dmax))
	if err != nil {
		return nil, err
	}
	hwFreq, err := rt.InvokeOne(w.tHWFreq, compss.In(dmax))
	if err != nil {
		return nil, err
	}
	cwDur, err := rt.InvokeOne(w.tCWDur, compss.In(dmin))
	if err != nil {
		return nil, err
	}
	cwNum, err := rt.InvokeOne(w.tCWNum, compss.In(dmin))
	if err != nil {
		return nil, err
	}
	cwFreq, err := rt.InvokeOne(w.tCWFreq, compss.In(dmin))
	if err != nil {
		return nil, err
	}
	tcPre, err := rt.InvokeOne(w.tTCPre, compss.In(monitorFut))
	if err != nil {
		return nil, err
	}
	tcInf, err := rt.InvokeOne(w.tTCInf, compss.In(tcPre))
	if err != nil {
		return nil, err
	}
	tcGeo, err := rt.InvokeOne(w.tTCGeo, compss.In(tcPre), compss.In(tcInf), compss.In(batch.Year))
	if err != nil {
		return nil, err
	}
	return rt.InvokeOne(w.tValidate,
		compss.In(batch.Year),
		compss.In(hwDur), compss.In(hwNum), compss.In(hwFreq),
		compss.In(cwDur), compss.In(cwNum), compss.In(cwFreq),
		compss.In(tcGeo),
		compss.In(importFut), compss.In(dmax), compss.In(dmin),
	)
}

// validateStore is task #8: validate the six index cubes, export them
// as NetCDF-like files, render the intermediate map, free the year's
// intermediate cubes, and emit the YearResult.
func (w *workflow) validateStore(args []any) ([]any, error) {
	cfg := w.cfg
	year := args[0].(int)
	hwDur := args[1].(*datacube.Cube)
	hwNum := args[2].(*datacube.Cube)
	hwFreq := args[3].(*datacube.Cube)
	cwDur := args[4].(*datacube.Cube)
	cwNum := args[5].(*datacube.Cube)
	cwFreq := args[6].(*datacube.Cube)
	tc := args[7].(yearTC)
	importCube := args[8].(*datacube.Cube)
	anomMax := args[9].(*datacube.Cube)
	anomMin := args[10].(*datacube.Cube)

	hw := &indices.Result{Duration: hwDur, Number: hwNum, Frequency: hwFreq}
	cw := &indices.Result{Duration: cwDur, Number: cwNum, Frequency: cwFreq}
	for _, r := range []*indices.Result{hw, cw} {
		if err := indices.Validate(r, cfg.IndexParams); err != nil {
			return nil, err
		}
	}

	out := YearResult{Year: year, CNNDetections: tc.Detections, TrackerTracks: tc.Tracks, TrackerAgreementKm: tc.AgreementKm}
	var err error
	if out.HeatWave.Duration, err = exportIndex(hwDur, cfg.OutputDir, "heat_wave_duration", year); err != nil {
		return nil, err
	}
	if out.HeatWave.Number, err = exportIndex(hwNum, cfg.OutputDir, "heat_wave_number", year); err != nil {
		return nil, err
	}
	if out.HeatWave.Frequency, err = exportIndex(hwFreq, cfg.OutputDir, "heat_wave_frequency", year); err != nil {
		return nil, err
	}
	if out.ColdWave.Duration, err = exportIndex(cwDur, cfg.OutputDir, "cold_wave_duration", year); err != nil {
		return nil, err
	}
	if out.ColdWave.Number, err = exportIndex(cwNum, cfg.OutputDir, "cold_wave_number", year); err != nil {
		return nil, err
	}
	if out.ColdWave.Frequency, err = exportIndex(cwFreq, cfg.OutputDir, "cold_wave_frequency", year); err != nil {
		return nil, err
	}
	if out.HWNumberMean, err = cubeMean(hwNum); err != nil {
		return nil, err
	}
	if out.CWNumberMean, err = cubeMean(cwNum); err != nil {
		return nil, err
	}

	// intermediate per-year map (Figure 4)
	field, err := indices.CubeToField(hwNum, cfg.Grid)
	if err != nil {
		return nil, err
	}
	out.MapPath = fmt.Sprintf("%s/heat_wave_number_%d.ppm", cfg.OutputDir, year)
	if err := viz.WritePPM(out.MapPath, field, 0, 0, viz.Heat); err != nil {
		return nil, err
	}

	// free the year's cubes; results live on disk now
	for _, c := range []*datacube.Cube{hwDur, hwNum, hwFreq, cwDur, cwNum, cwFreq, importCube, anomMax, anomMin} {
		_ = c.Delete()
	}
	return []any{out}, nil
}

// checkFileGrid verifies a daily model file matches the configured
// grid.
func checkFileGrid(path string, g grid.Grid) error {
	hdr, err := ncdf.ReadHeaderFile(path)
	if err != nil {
		return fmt.Errorf("core: reading %s: %w", path, err)
	}
	nlat, err := hdr.DimLen("lat")
	if err != nil {
		return fmt.Errorf("core: %s: %w", path, err)
	}
	nlon, err := hdr.DimLen("lon")
	if err != nil {
		return fmt.Errorf("core: %s: %w", path, err)
	}
	if nlat != g.NLat || nlon != g.NLon {
		return fmt.Errorf("core: model files are %dx%d but the workflow is configured for %dx%d — match -grid to the producer",
			nlat, nlon, g.NLat, g.NLon)
	}
	return nil
}

// loadTCFields reads the TC branch variables from the year's files.
func loadTCFields(files []string, g grid.Grid) ([]stepFields, error) {
	var out []stepFields
	for _, path := range files {
		_, dayOfYear, ok := esm.ParseFileName(path)
		if !ok {
			return nil, fmt.Errorf("core: unparseable model file %q", path)
		}
		perVar, err := readDayVars(path)
		if err != nil {
			return nil, err
		}
		steps, err := dayStepFields(perVar, g, dayOfYear)
		if err != nil {
			return nil, err
		}
		out = append(out, steps...)
	}
	sortStepFields(out)
	return out, nil
}

// readDayVars reads one daily file's TC variables with one open and
// one header parse, into one backing array.
func readDayVars(path string) (map[string][]float32, error) {
	vals, err := ncdf.ReadVarsFile(path, tcVars)
	if err != nil {
		return nil, err
	}
	perVar := make(map[string][]float32, len(tcVars))
	for i, v := range tcVars {
		perVar[v] = vals[i]
	}
	return perVar, nil
}

// dayStepFields slices one day's step-major variable arrays into
// per-instant field sets, deriving the wind-speed channel. The source
// arrays are only read — exchange tensors stay intact for other
// consumers.
func dayStepFields(perVar map[string][]float32, g grid.Grid, dayOfYear int) ([]stepFields, error) {
	size := g.Size()
	out := make([]stepFields, 0, esm.StepsPerDay)
	for _, v := range tcVars {
		if len(perVar[v]) != esm.StepsPerDay*size {
			return nil, fmt.Errorf("core: day %d variable %s holds %d values, want %d", dayOfYear, v, len(perVar[v]), esm.StepsPerDay*size)
		}
	}
	for s := 0; s < esm.StepsPerDay; s++ {
		fields := make(map[string]*grid.Field, len(tcVars)+1)
		for _, v := range tcVars {
			f := grid.NewField(g)
			copy(f.Data, perVar[v][s*size:(s+1)*size])
			fields[v] = f
		}
		// derived wind speed channel for the CNN
		w := grid.NewField(g)
		u, vv := fields["U850"], fields["V850"]
		for i := range w.Data {
			w.Data[i] = float32(math.Hypot(float64(u.Data[i]), float64(vv.Data[i])))
		}
		fields["WSPD"] = w
		out = append(out, stepFields{Day: dayOfYear, Step: s, Fields: fields})
	}
	return out, nil
}

func sortStepFields(out []stepFields) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Day != out[j].Day {
			return out[i].Day < out[j].Day
		}
		return out[i].Step < out[j].Step
	})
}

// agreement is the mean distance from each CNN detection to the
// nearest deterministic track point; -1 when either side is empty.
func agreement(dets []ml.Detection, tracks []*tctrack.Track) float64 {
	if len(dets) == 0 || len(tracks) == 0 {
		return -1
	}
	var sum float64
	for _, d := range dets {
		best := math.Inf(1)
		for _, t := range tracks {
			for _, p := range t.Points {
				if dist := grid.Haversine(d.Lat, d.Lon, p.Lat, p.Lon); dist < best {
					best = dist
				}
			}
		}
		sum += best
	}
	return sum / float64(len(dets))
}
