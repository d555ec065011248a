package esm

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/grid"
	"repro/internal/ncdf"
)

// equalFields compares two fields bit-exactly.
func equalFields(a, b *grid.Field) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

func TestRestartResumesBitExactly(t *testing.T) {
	cfg := smallCfg()
	cfg.DaysPerYear = 16

	// reference: run straight through
	ref := NewModel(cfg)
	for i := 0; i < 8; i++ {
		ref.StepDay()
	}

	// checkpointed: run 8 days, save, reload, continue
	m := NewModel(cfg)
	for i := 0; i < 8; i++ {
		m.StepDay()
	}
	path := filepath.Join(t.TempDir(), "restart.gob")
	if err := m.SaveRestart(path); err != nil {
		t.Fatal(err)
	}
	resumed, err := LoadRestart(path)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Done() {
		t.Fatal("resumed model already done")
	}

	for day := 8; day < 16; day++ {
		want := ref.StepDay()
		got := resumed.StepDay()
		if want == nil || got == nil {
			t.Fatalf("nil output at day %d", day)
		}
		if got.DayOfYear != want.DayOfYear || got.Year != want.Year {
			t.Fatalf("day identity: got %d/%d want %d/%d", got.Year, got.DayOfYear, want.Year, want.DayOfYear)
		}
		for _, v := range []string{"TREFHT", "PSL", "SST", "PRECT", "VORT850"} {
			wf, _ := want.Field(2, v)
			gf, _ := got.Field(2, v)
			if !equalFields(wf, gf) {
				t.Fatalf("day %d variable %s diverged after restart", day, v)
			}
		}
	}
	if !resumed.Done() || resumed.StepDay() != nil {
		t.Fatal("resumed model should be exhausted")
	}

	// The same in the middle of a Run, which recycles one day's storage:
	// OnDay records a restart image after day k of year 2, the run stops,
	// UnmarshalRestart + Run finish it, and every file matches the
	// manifest — recycled buffers carry no state a restart would lose.
	const name, k = "seed42_24x48", 41
	dir := t.TempDir()
	var image []byte
	var imageErr error
	first := NewModel(manifestCases()[name])
	_, err = first.Run(RunOptions{
		Dir: dir,
		OnDay: func(string, *DayOutput) {
			if first.DaysCompleted() == k {
				image, imageErr = first.MarshalRestart()
			}
		},
		OnDataset: func(string, *DayOutput, *ncdf.Dataset) error {
			if image != nil {
				return errEnough
			}
			return nil
		},
	})
	if !errors.Is(err, errEnough) || imageErr != nil {
		t.Fatalf("interrupted run: %v, restart image: %v", err, imageErr)
	}
	second, err := UnmarshalRestart(image)
	if err != nil {
		t.Fatal(err)
	}
	if second.DaysCompleted() != k {
		t.Fatalf("resumed at day %d, want %d", second.DaysCompleted(), k)
	}
	if _, err := second.Run(RunOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.nc"))
	if err != nil {
		t.Fatal(err)
	}
	diffHashes(t, "restart in mid-Run", hashFiles(t, files), loadManifest(t)[name])
}

func TestRestartPreservesGroundTruth(t *testing.T) {
	cfg := smallCfg()
	m := NewModel(cfg)
	m.StepDay()
	data, err := m.MarshalRestart()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := UnmarshalRestart(data)
	if err != nil {
		t.Fatal(err)
	}
	a, b := m.GroundTruth(), resumed.GroundTruth()
	if len(a.Waves) != len(b.Waves) || len(a.Cyclones) != len(b.Cyclones) {
		t.Fatal("ground truth changed across restart")
	}
	for i := range a.Waves {
		if a.Waves[i] != b.Waves[i] {
			t.Fatalf("wave %d differs: %+v vs %+v", i, a.Waves[i], b.Waves[i])
		}
	}
}

func TestRestartRejectsCorruptData(t *testing.T) {
	if _, err := UnmarshalRestart([]byte("junk")); err == nil {
		t.Fatal("junk restart accepted")
	}
	if _, err := LoadRestart(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRestartRejectsMismatchedState(t *testing.T) {
	m := NewModel(smallCfg())
	// tamper: a restart image whose SST does not match the grid
	img := restartImage{Cfg: m.cfg, SST: []float32{1, 2, 3}}
	data, err := encodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalRestart(data); err == nil {
		t.Fatal("mismatched SST accepted")
	}
	// tamper: day counter outside the run
	good, err := m.MarshalRestart()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalRestart(good); err != nil {
		t.Fatal(err)
	}
	img2 := restartImage{
		Cfg: m.cfg, AbsDay: m.TotalDays() + 5,
		SST:    make([]float32, m.cfg.Grid.Size()),
		NoiseT: m.noiseT.image(), NoiseP: m.noiseP.image(), NoiseW: m.noiseW.image(),
	}
	data2, err := encodeImage(img2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalRestart(data2); err == nil {
		t.Fatal("out-of-range day accepted")
	}
}

func TestPRNGDeterminismAndRanges(t *testing.T) {
	a, b := newPRNG(42), newPRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := newPRNG(43)
	if a.Uint64() == c.Uint64() {
		t.Fatal("different seeds matched")
	}
	p := newPRNG(7)
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := p.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		x := p.NormFloat64()
		sum += x
		sumSq += x * x
		if k := p.Intn(10); k < 0 || k >= 10 {
			t.Fatalf("Intn out of range: %d", k)
		}
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("normal mean = %v", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestPRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	newPRNG(1).Intn(0)
}

func TestPRNGSerializableMidStream(t *testing.T) {
	p := newPRNG(9)
	for i := 0; i < 137; i++ {
		p.NormFloat64()
	}
	snapshot := *p
	var wantSeq []float64
	for i := 0; i < 50; i++ {
		wantSeq = append(wantSeq, p.NormFloat64())
	}
	q := snapshot // resume from the copied state
	for i := 0; i < 50; i++ {
		if got := q.NormFloat64(); got != wantSeq[i] {
			t.Fatalf("resumed PRNG diverged at %d", i)
		}
	}
}
