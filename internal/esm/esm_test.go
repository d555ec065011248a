package esm

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/ncdf"
)

func smallCfg() Config {
	return Config{
		Grid:        grid.Grid{NLat: 24, NLon: 48},
		StartYear:   2040,
		Years:       1,
		DaysPerYear: 20,
		Seed:        42,
	}
}

func TestScenarioStringsAndRates(t *testing.T) {
	if Historical.String() != "historical" || SSP245.String() != "ssp245" || SSP585.String() != "ssp585" {
		t.Fatal("scenario strings")
	}
	if Scenario(9).String() == "" {
		t.Fatal("unknown scenario string empty")
	}
	if Historical.WarmingRate() != 0 || SSP585.WarmingRate() <= SSP245.WarmingRate() {
		t.Fatal("warming rates disordered")
	}
}

func TestClimatologyShape(t *testing.T) {
	g := grid.Grid{NLat: 90, NLon: 180}
	equator := Climatology(g, 45, 0, 180, 365)
	pole := Climatology(g, 89, 0, 180, 365)
	if equator <= pole {
		t.Fatalf("equator %v not warmer than pole %v", equator, pole)
	}
	// seasonal cycle: NH midlatitude warmer in July (day ~195) than January
	nhRow := 70 // ~ +50 lat
	jul := Climatology(g, nhRow, 0, 195, 365)
	jan := Climatology(g, nhRow, 0, 15, 365)
	if jul <= jan {
		t.Fatalf("NH summer %v not warmer than winter %v", jul, jan)
	}
	// southern hemisphere is antiphase
	shRow := 19
	julS := Climatology(g, shRow, 0, 195, 365)
	janS := Climatology(g, shRow, 0, 15, 365)
	if janS <= julS {
		t.Fatalf("SH summer %v not warmer than winter %v", janS, julS)
	}
}

func TestDiurnalAnomalyCycle(t *testing.T) {
	if DiurnalAnomaly(2) <= DiurnalAnomaly(1) {
		t.Fatal("afternoon should beat morning")
	}
	if DiurnalAnomaly(0) != DiurnalAnomaly(4) {
		t.Fatal("diurnal cycle must wrap")
	}
}

func TestModelDeterminism(t *testing.T) {
	m1 := NewModel(smallCfg())
	m2 := NewModel(smallCfg())
	d1 := m1.StepDay()
	d2 := m2.StepDay()
	f1, _ := d1.Field(0, "TREFHT")
	f2, _ := d2.Field(0, "TREFHT")
	for i := range f1.Data {
		if f1.Data[i] != f2.Data[i] {
			t.Fatalf("same seed diverged at cell %d: %v vs %v", i, f1.Data[i], f2.Data[i])
		}
	}
	gt1, gt2 := m1.GroundTruth(), m2.GroundTruth()
	if len(gt1.Waves) != len(gt2.Waves) || len(gt1.Cyclones) != len(gt2.Cyclones) {
		t.Fatal("ground truth not deterministic")
	}
}

func TestModelSeedSensitivity(t *testing.T) {
	cfg2 := smallCfg()
	cfg2.Seed = 43
	d1 := NewModel(smallCfg()).StepDay()
	d2 := NewModel(cfg2).StepDay()
	f1, _ := d1.Field(0, "TREFHT")
	f2, _ := d2.Field(0, "TREFHT")
	same := true
	for i := range f1.Data {
		if f1.Data[i] != f2.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical weather")
	}
}

func TestStepDayProgressionAndDone(t *testing.T) {
	m := NewModel(smallCfg())
	if m.TotalDays() != 20 {
		t.Fatalf("TotalDays = %d", m.TotalDays())
	}
	for i := 0; i < 20; i++ {
		d := m.StepDay()
		if d == nil {
			t.Fatalf("nil output at day %d", i)
		}
		if d.DayOfYear != i || d.Year != 2040 {
			t.Fatalf("day %d: got year %d doy %d", i, d.Year, d.DayOfYear)
		}
	}
	if !m.Done() || m.StepDay() != nil {
		t.Fatal("model should be exhausted")
	}
}

func TestAllVariablesPresentAndFinite(t *testing.T) {
	m := NewModel(smallCfg())
	d := m.StepDay()
	for s := 0; s < StepsPerDay; s++ {
		for _, v := range Vars {
			f, err := d.Field(s, v)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range f.Data {
				if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
					t.Fatalf("%s step %d cell %d not finite: %v", v, s, i, x)
				}
			}
		}
	}
	if _, err := d.Field(0, "NOPE"); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, err := d.Field(99, "TREFHT"); err == nil {
		t.Fatal("bad step accepted")
	}
}

func TestPhysicalRanges(t *testing.T) {
	m := NewModel(smallCfg())
	d := m.StepDay()
	for s := 0; s < StepsPerDay; s++ {
		tr, _ := d.Field(s, "TREFHT")
		st := tr.Statistics()
		if st.Min < 180 || st.Max > 340 {
			t.Fatalf("TREFHT out of plausible range: %+v", st)
		}
		psl, _ := d.Field(s, "PSL")
		pst := psl.Statistics()
		if pst.Min < 90000 || pst.Max > 108000 {
			t.Fatalf("PSL out of range: %+v", pst)
		}
		ice, _ := d.Field(s, "ICEFRAC")
		ist := ice.Statistics()
		if ist.Min < 0 || ist.Max > 1 {
			t.Fatalf("ICEFRAC out of [0,1]: %+v", ist)
		}
		cld, _ := d.Field(s, "CLDTOT")
		cst := cld.Statistics()
		if cst.Min < 0 || cst.Max > 1 {
			t.Fatalf("CLDTOT out of [0,1]: %+v", cst)
		}
	}
}

func TestSeededHeatWaveRaisesTemperature(t *testing.T) {
	cfg := smallCfg()
	cfg.DaysPerYear = 40
	cfg.Events = &EventConfig{HeatWavesPerYear: 1, WaveAmplitudeK: 8, WaveMinDays: 6, WaveMaxDays: 6, CyclonesPerYear: 0}
	m := NewModel(cfg)
	gt := m.GroundTruth()
	if len(gt.HeatWaves()) != 1 || len(gt.ColdSpells()) != 0 {
		t.Fatalf("events = %+v", gt.Waves)
	}
	w := gt.HeatWaves()[0]
	ci, cj := cfg.Grid.CellOf(w.CenterLat, w.CenterLon)

	var during, outside []float64
	for day := 0; day < cfg.DaysPerYear; day++ {
		d := m.StepDay()
		f, _ := d.Field(2, "TREFHT")
		v := float64(f.At(ci, cj)) - Climatology(cfg.Grid, ci, cj, day, cfg.DaysPerYear)
		if day >= w.StartDay && day < w.StartDay+w.Days {
			during = append(during, v)
		} else {
			outside = append(outside, v)
		}
	}
	if mean(during) < mean(outside)+5 {
		t.Fatalf("wave anomaly too weak: during=%v outside=%v", mean(during), mean(outside))
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestSeededCycloneImprint(t *testing.T) {
	cfg := smallCfg()
	cfg.Grid = grid.Grid{NLat: 48, NLon: 96}
	cfg.DaysPerYear = 30
	cfg.Events = &EventConfig{CyclonesPerYear: 1, WaveAmplitudeK: 8, WaveMinDays: 6, WaveMaxDays: 6}
	m := NewModel(cfg)
	gt := m.GroundTruth()
	if len(gt.Cyclones) != 1 {
		t.Fatalf("cyclones = %d", len(gt.Cyclones))
	}
	c := gt.Cyclones[0]
	if len(c.Track) < 3*StepsPerDay {
		t.Fatalf("track too short: %d", len(c.Track))
	}
	// advance to a mid-life day and check the pressure depression
	mid := c.Track[len(c.Track)/2]
	var d *DayOutput
	for day := 0; day <= mid.Day; day++ {
		d = m.StepDay()
	}
	psl, _ := d.Field(mid.Step, "PSL")
	ci, cj := cfg.Grid.CellOf(mid.Lat, mid.Lon)
	center := float64(psl.At(ci, cj))
	// ambient pressure ~8 cells away along the same latitude
	ambient := float64(psl.At(ci, cj+12))
	if ambient-center < mid.PressureDrop/3 {
		t.Fatalf("no storm depression: center %v ambient %v want drop >= %v", center, ambient, mid.PressureDrop/3)
	}
	wspd, _ := d.Field(mid.Step, "VORT850")
	if v := float64(wspd.At(ci, cj)); math.Abs(v) < 1e-5 {
		t.Fatalf("no vorticity signature: %v", v)
	}
}

func TestScenarioWarmingTrend(t *testing.T) {
	mk := func(s Scenario) float64 {
		cfg := smallCfg()
		cfg.Years = 3
		cfg.DaysPerYear = 10
		cfg.Scenario = s
		cfg.Events = &EventConfig{} // no events: isolate trend
		m := NewModel(cfg)
		var first, last float64
		for i := 0; i < m.TotalDays(); i++ {
			d := m.StepDay()
			f, _ := d.Field(0, "TREFHT")
			v := f.Statistics().Mean
			if i == 0 {
				first = v
			}
			last = v
		}
		return last - first
	}
	dH := mk(Historical)
	d585 := mk(SSP585)
	if d585 <= dH {
		t.Fatalf("SSP585 trend %v not above historical %v", d585, dH)
	}
}

func TestOceanIceConsistency(t *testing.T) {
	m := NewModel(smallCfg())
	d := m.StepDay()
	sst, _ := d.Field(0, "SST")
	ice, _ := d.Field(0, "ICEFRAC")
	for i := range sst.Data {
		if sst.Data[i] > 272.35 && ice.Data[i] == 1 {
			t.Fatalf("full ice over warm water at %d: sst=%v", i, sst.Data[i])
		}
		if sst.Data[i] < 269 && ice.Data[i] == 0 {
			t.Fatalf("no ice over freezing water at %d: sst=%v", i, sst.Data[i])
		}
	}
}

func TestIceFractionRamp(t *testing.T) {
	if iceFraction(280) != 0 || iceFraction(260) != 1 {
		t.Fatal("ice endpoints wrong")
	}
	mid := iceFraction(271.35)
	if mid <= 0 || mid >= 1 {
		t.Fatalf("ramp value = %v", mid)
	}
}

func TestFileNameRoundTrip(t *testing.T) {
	name := FileName(2041, 7)
	if name != "cm3_2041_d007.nc" {
		t.Fatalf("name = %q", name)
	}
	y, d, ok := ParseFileName("/data/" + name)
	if !ok || y != 2041 || d != 7 {
		t.Fatalf("parse = %d %d %v", y, d, ok)
	}
	if _, _, ok := ParseFileName("garbage.nc"); ok {
		t.Fatal("garbage parsed")
	}
	if y, ok := YearOf(name); !ok || y != 2041 {
		t.Fatalf("YearOf = %d %v", y, ok)
	}
}

func TestToDatasetLayout(t *testing.T) {
	m := NewModel(smallCfg())
	d := m.StepDay()
	ds, err := d.ToDataset()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := ds.DimLen("time"); n != StepsPerDay {
		t.Fatalf("time dim = %d", n)
	}
	if len(ds.Vars) != len(Vars) {
		t.Fatalf("vars = %d, want %d", len(ds.Vars), len(Vars))
	}
	v, err := ds.Var("TREFHT")
	if err != nil {
		t.Fatal(err)
	}
	// step-major layout: step 1 slice equals the model field
	size := d.Grid.Size()
	f, _ := d.Field(1, "TREFHT")
	for i := 0; i < size; i += 37 {
		if v.Data[size+i] != f.Data[i] {
			t.Fatalf("layout mismatch at %d", i)
		}
	}
	if ds.Attrs["year"].I != 2040 {
		t.Fatalf("year attr = %v", ds.Attrs["year"])
	}
}

func TestRunWritesFilesInOrder(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCfg()
	cfg.DaysPerYear = 5
	m := NewModel(cfg)
	var seen []string
	paths, err := m.Run(RunOptions{Dir: dir, OnDay: func(p string, d *DayOutput) { seen = append(seen, p) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 5 || len(seen) != 5 {
		t.Fatalf("paths = %d, callbacks = %d", len(paths), len(seen))
	}
	for i, p := range paths {
		_, day, ok := ParseFileName(p)
		if !ok || day != i {
			t.Fatalf("path %d = %q", i, p)
		}
		if _, err := os.Stat(p); err != nil {
			t.Fatal(err)
		}
	}
	// files are valid GNC1 with all variables
	ds, err := ncdf.ReadFile(filepath.Join(dir, FileName(2040, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Vars) != len(Vars) {
		t.Fatalf("file vars = %d", len(ds.Vars))
	}
}

// TestRunOnDatasetSharesWrittenData: the OnDataset hook hands over the
// exact in-memory dataset the file was written from — the day's own
// backing storage, same bytes on disk — so exchange publishers never
// re-read what they just produced. Run recycles that storage, so the
// comparison happens inside the callback, where the contract holds.
func TestRunOnDatasetSharesWrittenData(t *testing.T) {
	dir := t.TempDir()
	cfg := smallCfg()
	cfg.DaysPerYear = 3
	m := NewModel(cfg)
	calls := 0
	_, err := m.Run(RunOptions{Dir: dir, OnDataset: func(p string, d *DayOutput, ds *ncdf.Dataset) error {
		calls++
		onDisk, err := ncdf.ReadFile(p)
		if err != nil {
			return err
		}
		for _, name := range Vars {
			mem, err := ds.Var(name)
			if err != nil {
				return err
			}
			disk, err := onDisk.Var(name)
			if err != nil {
				return err
			}
			if f, _ := d.Field(0, name); &mem.Data[0] != &f.Data[0] {
				return fmt.Errorf("%s: dataset variable is a copy of the day's field", name)
			}
			if len(mem.Data) != len(disk.Data) {
				return fmt.Errorf("%s: in-memory %d values, on-disk %d", name, len(mem.Data), len(disk.Data))
			}
			for i := range mem.Data {
				if mem.Data[i] != disk.Data[i] {
					return fmt.Errorf("%s[%d]: memory %v != disk %v", name, i, mem.Data[i], disk.Data[i])
				}
			}
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("OnDataset calls = %d", calls)
	}
	// An OnDataset error aborts the run after the failing day.
	m2 := NewModel(cfg)
	calls = 0
	_, err = m2.Run(RunOptions{Dir: t.TempDir(), OnDataset: func(string, *DayOutput, *ncdf.Dataset) error {
		calls++
		return fmt.Errorf("boom")
	}})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

// sameDay reports the first field in which two days differ.
func sameDay(got, want *DayOutput) error {
	if got.Year != want.Year || got.DayOfYear != want.DayOfYear {
		return fmt.Errorf("day %d/%d, want %d/%d", got.Year, got.DayOfYear, want.Year, want.DayOfYear)
	}
	for s := 0; s < StepsPerDay; s++ {
		for _, name := range Vars {
			gf, _ := got.Field(s, name)
			wf, _ := want.Field(s, name)
			if !equalFields(gf, wf) {
				return fmt.Errorf("day %d step %d: %s differs", want.DayOfYear, s, name)
			}
		}
	}
	return nil
}

// TestStepDayOutputsAreIndependent: ml.SamplesFromSimulations and
// cmd/tcexperiment keep every DayOutput a bare StepDay returns, so a
// later day must never write into an earlier one.
func TestStepDayOutputsAreIndependent(t *testing.T) {
	cfg := smallCfg()
	cfg.DaysPerYear = 10
	m, ref := NewModel(cfg), NewModel(cfg)
	var kept []*DayOutput
	for d := m.StepDay(); d != nil; d = m.StepDay() {
		kept = append(kept, d)
	}
	if len(kept) != 10 {
		t.Fatalf("kept %d days", len(kept))
	}
	// ref has only produced the day under comparison when it is compared
	for _, d := range kept {
		if err := sameDay(d, ref.StepDay()); err != nil {
			t.Fatalf("kept output changed after later days ran: %v", err)
		}
	}
}

// TestRunCallbacksSeeCurrentDay: Run recycles one day's storage, and
// the contract is that OnDataset and OnDay see the day that just landed
// for as long as the callback runs.
func TestRunCallbacksSeeCurrentDay(t *testing.T) {
	cfg := smallCfg()
	cfg.DaysPerYear = 6
	m, ref := NewModel(cfg), NewModel(cfg)
	var want *DayOutput
	var onDayErr error
	days := 0
	_, err := m.Run(RunOptions{
		Dir: t.TempDir(),
		OnDataset: func(_ string, d *DayOutput, ds *ncdf.Dataset) error {
			want = ref.StepDay()
			if err := sameDay(d, want); err != nil {
				return err
			}
			for _, v := range ds.Vars { // time-major: step 0 comes first
				if wf, _ := want.Field(0, v.Name); !slices.Equal(v.Data[:len(wf.Data)], wf.Data) {
					return fmt.Errorf("day %d: dataset variable %s differs", d.DayOfYear, v.Name)
				}
			}
			return nil
		},
		OnDay: func(_ string, d *DayOutput) {
			days++
			if err := sameDay(d, want); err != nil && onDayErr == nil {
				onDayErr = err
			}
		},
	})
	if err != nil || onDayErr != nil {
		t.Fatalf("OnDataset: %v, OnDay: %v", err, onDayErr)
	}
	if days != 6 {
		t.Fatalf("OnDay calls = %d", days)
	}
}

func TestGroundTruthSpansAllYears(t *testing.T) {
	cfg := smallCfg()
	cfg.Years = 3
	m := NewModel(cfg)
	years := map[int]bool{}
	for _, w := range m.GroundTruth().Waves {
		years[w.Year] = true
	}
	for y := 2040; y < 2043; y++ {
		if !years[y] {
			t.Fatalf("no waves seeded in %d", y)
		}
	}
	// cyclone IDs unique
	ids := map[int]bool{}
	for _, c := range m.GroundTruth().Cyclones {
		if ids[c.ID] {
			t.Fatalf("duplicate cyclone ID %d", c.ID)
		}
		ids[c.ID] = true
		if len(c.Track) == 0 || c.Basin == "" {
			t.Fatalf("malformed cyclone %+v", c)
		}
	}
}

func TestWaveAnomalyLocalized(t *testing.T) {
	g := grid.Grid{NLat: 90, NLon: 180}
	w := Wave{Hot: true, StartDay: 10, Days: 5, CenterLat: 40, CenterLon: 100, RadiusDeg: 8, AmplitudeK: 10}
	ci, cj := g.CellOf(40, 100)
	if a := w.anomalyAt(g, ci, cj, 12); a < 9 {
		t.Fatalf("center anomaly = %v", a)
	}
	if a := w.anomalyAt(g, ci, cj, 9); a != 0 {
		t.Fatalf("pre-onset anomaly = %v", a)
	}
	if a := w.anomalyAt(g, ci, cj, 15); a != 0 {
		t.Fatalf("post-end anomaly = %v", a)
	}
	fi, fj := g.CellOf(-40, 280)
	if a := w.anomalyAt(g, fi, fj, 12); a != 0 {
		t.Fatalf("far-field anomaly = %v", a)
	}
	// cold spell flips sign
	c := w
	c.Hot = false
	if a := c.anomalyAt(g, ci, cj, 12); a > -9 {
		t.Fatalf("cold anomaly = %v", a)
	}
}

func TestCycloneActiveLookup(t *testing.T) {
	c := Cyclone{Track: []TrackPoint{{Day: 3, Step: 2, Lat: 15, Lon: 310}}}
	if _, ok := c.Active(3, 2); !ok {
		t.Fatal("active point missed")
	}
	if _, ok := c.Active(3, 3); ok {
		t.Fatal("phantom active point")
	}
}
