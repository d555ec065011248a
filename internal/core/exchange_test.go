package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/esm"
	"repro/internal/grid"
	"repro/internal/ml"
	"repro/internal/ncdf"
	"repro/internal/texchange"
)

// TestExchangeRunEquivalence runs the same configuration through the
// file handoff and the exchange handoff and demands identical results:
// same detections, same index statistics, byte-identical exported
// index files — the exchange changes where bytes travel, never what
// they are.
func TestExchangeRunEquivalence(t *testing.T) {
	mkLoc := func() *ml.Localizer {
		loc, err := ml.NewLocalizer(12, 12, 7)
		if err != nil {
			t.Fatal(err)
		}
		return loc
	}

	cfgFile := testConfig(t, 1)
	cfgFile.Localizer = mkLoc()
	cfgFile.TCThreshold = 0.05
	resFile, err := Run(cfgFile)
	if err != nil {
		t.Fatal(err)
	}

	x := texchange.New(texchange.Config{})
	defer x.Close()
	cfgEx := testConfig(t, 1)
	cfgEx.Localizer = mkLoc()
	cfgEx.TCThreshold = 0.05
	cfgEx.Exchange = x
	resEx, err := Run(cfgEx)
	if err != nil {
		t.Fatal(err)
	}

	// The exchange really carried the data: every day's variables were
	// published, and the datacube import needed no storage reads beyond
	// the baselines.
	st := x.Stats()
	if want := uint64(cfgEx.DaysPerYear * len(exchangeVars)); st.Publishes != want {
		t.Fatalf("publishes = %d, want %d", st.Publishes, want)
	}
	if resEx.CubeStats.FileReads >= resFile.CubeStats.FileReads {
		t.Fatalf("exchange run did %d file reads, file run %d — handoff still file-bound",
			resEx.CubeStats.FileReads, resFile.CubeStats.FileReads)
	}

	// Identical analytical results.
	yf, ye := resFile.Years[0], resEx.Years[0]
	if len(yf.CNNDetections) == 0 {
		t.Fatal("file run produced no detections; equivalence check vacuous")
	}
	if len(yf.CNNDetections) != len(ye.CNNDetections) {
		t.Fatalf("detections: %d vs %d", len(yf.CNNDetections), len(ye.CNNDetections))
	}
	for i := range yf.CNNDetections {
		if yf.CNNDetections[i] != ye.CNNDetections[i] {
			t.Fatalf("detection %d: %+v vs %+v", i, yf.CNNDetections[i], ye.CNNDetections[i])
		}
	}
	if yf.TrackerTracks != ye.TrackerTracks || yf.TrackerAgreementKm != ye.TrackerAgreementKm {
		t.Fatalf("tracker: (%d, %v) vs (%d, %v)", yf.TrackerTracks, yf.TrackerAgreementKm, ye.TrackerTracks, ye.TrackerAgreementKm)
	}
	if yf.HWNumberMean != ye.HWNumberMean || yf.CWNumberMean != ye.CWNumberMean {
		t.Fatalf("index means: (%v, %v) vs (%v, %v)", yf.HWNumberMean, yf.CWNumberMean, ye.HWNumberMean, ye.CWNumberMean)
	}

	// Identical exported index files — every value, dimension and
	// provenance attribute. (Raw bytes can differ only in the cube_id
	// attr, whose numbering follows scheduler timing, not data.)
	for _, name := range []string{
		"heat_wave_duration", "heat_wave_number", "heat_wave_frequency",
		"cold_wave_duration", "cold_wave_number", "cold_wave_frequency",
	} {
		fn := fmt.Sprintf("%s_%d.nc", name, 2040)
		a, err := ncdf.ReadFile(filepath.Join(cfgFile.OutputDir, fn))
		if err != nil {
			t.Fatal(err)
		}
		b, err := ncdf.ReadFile(filepath.Join(cfgEx.OutputDir, fn))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a.Dims) != fmt.Sprint(b.Dims) {
			t.Fatalf("%s: dims %v vs %v", fn, a.Dims, b.Dims)
		}
		if a.Attrs["provenance"] != b.Attrs["provenance"] || a.Attrs["year"] != b.Attrs["year"] {
			t.Fatalf("%s: attrs differ: %v vs %v", fn, a.Attrs, b.Attrs)
		}
		va, err := a.Var(name)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := b.Var(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(va.Data) != len(vb.Data) {
			t.Fatalf("%s: %d vs %d values", fn, len(va.Data), len(vb.Data))
		}
		for i := range va.Data {
			if va.Data[i] != vb.Data[i] {
				t.Fatalf("%s[%d]: %v vs %v", fn, i, va.Data[i], vb.Data[i])
			}
		}
	}
}

// TestExchangeRunOnlineTrainer runs the full online loop: exchange
// handoff plus a trainer fed by the tracker's pseudo-labels, hot-
// swapping improved weights into the live localizer mid-run.
func TestExchangeRunOnlineTrainer(t *testing.T) {
	loc, err := ml.NewLocalizer(12, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ml.NewOnlineTrainer(ml.OnlineConfig{Target: loc, SwapEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	x := texchange.New(texchange.Config{})
	defer x.Close()

	cfg := testConfig(t, 2)
	cfg.Localizer = loc
	cfg.TCThreshold = 0.05
	cfg.Exchange = x
	cfg.OnlineTrainer = tr
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if len(res.Years) != 2 {
		t.Fatalf("years = %d", len(res.Years))
	}
	st := tr.Stats()
	if st.Fed == 0 || st.Samples == 0 || st.Steps == 0 {
		t.Fatalf("trainer never trained: %+v", st)
	}
	if st.Swaps == 0 || loc.WeightsGeneration() == 0 {
		t.Fatalf("trainer never swapped weights: %+v gen=%d", st, loc.WeightsGeneration())
	}
}

// TestExchangeRunAttachOnlyIgnoresExchange: with no in-process
// producer nothing publishes, so consumers must not stall on the
// exchange — the run completes on the file path.
func TestExchangeRunAttachOnlyIgnoresExchange(t *testing.T) {
	// Produce a year of files up front with a plain run.
	seed := testConfig(t, 1)
	seed.ModelDir = filepath.Join(seed.OutputDir, "model_output")
	if _, err := Run(seed); err != nil {
		t.Fatal(err)
	}

	x := texchange.New(texchange.Config{})
	defer x.Close()
	cfg := testConfig(t, 1)
	cfg.ModelDir = seed.ModelDir
	cfg.Exchange = x
	cfg.AttachOnly = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Years) != 1 {
		t.Fatalf("years = %d", len(res.Years))
	}
	if st := x.Stats(); st.Publishes != 0 || st.Waits != 0 {
		t.Fatalf("attach-only run touched the exchange: %+v", st)
	}
}

// TestPublishDayCopies: the exchange holds a tensor until a consumer
// takes it, while esm.Model.Run recycles the day's storage as soon as
// the OnDataset callback returns — so what publishDay publishes must
// survive the days that follow.
func TestPublishDayCopies(t *testing.T) {
	x := texchange.New(texchange.Config{})
	defer x.Close()
	m := esm.NewModel(esm.Config{Grid: grid.Grid{NLat: 12, NLon: 24}, Years: 1, DaysPerYear: 3, Seed: 5})
	day0 := map[string][]float32{}
	_, err := m.Run(esm.RunOptions{Dir: t.TempDir(), OnDataset: func(_ string, d *esm.DayOutput, ds *ncdf.Dataset) error {
		if d.DayOfYear == 0 {
			for _, name := range exchangeVars {
				v, err := ds.Var(name)
				if err != nil {
					return err
				}
				day0[name] = append([]float32(nil), v.Data...)
			}
		}
		return publishDay(x, d, ds)
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range exchangeVars {
		got, ok, err := x.Get(exTensorName(m.Config().StartYear, 0, name))
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v", name, ok, err)
		}
		if !reflect.DeepEqual(got.Data, day0[name]) {
			t.Fatalf("%s: day 0's published tensor changed while later days ran", name)
		}
	}
}
