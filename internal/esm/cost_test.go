package esm

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/grid"
	"repro/internal/ncdf"
)

// costModel is a 30-day-year model long enough for at least days days.
func costModel(g grid.Grid, days int) *Model {
	return NewModel(Config{Grid: g, Years: (days + 29) / 30, DaysPerYear: 30, Seed: 42})
}

// errEnough stops a Run after the measured number of days.
var errEnough = errors.New("enough days")

// runDays runs m for exactly days days, deleting each file as it lands,
// and calls perDay (if non-nil) after each.
func runDays(tb testing.TB, m *Model, days int, perDay func()) {
	tb.Helper()
	n := 0
	_, err := m.Run(RunOptions{Dir: tb.TempDir(), OnDataset: func(path string, _ *DayOutput, _ *ncdf.Dataset) error {
		if err := os.Remove(path); err != nil {
			return err
		}
		if perDay != nil {
			perDay()
		}
		if n++; n == days {
			return errEnough
		}
		return nil
	}})
	if !errors.Is(err, errEnough) {
		tb.Fatalf("Run ended after %d of %d days: %v", n, days, err)
	}
}

// TestStepDayAllocBudget is the weather-proof half of the StepDay cost
// gate: allocation counts do not depend on how busy the machine is. A
// bare StepDay allocates only its independent DayOutput (header, step
// table, field views, one backing array); a Run day recycles even that
// and pays for the ncdf dataset and the file, nothing per field.
func TestStepDayAllocBudget(t *testing.T) {
	const stepBudget = 8
	g := grid.Grid{NLat: 24, NLon: 48}
	m := costModel(g, 30)
	d := m.StepDay() // the first day grows the per-model scratch
	if got := testing.AllocsPerRun(20, func() { m.StepDay() }); got > stepBudget {
		t.Errorf("StepDay: %v allocs/day, budget %d", got, stepBudget)
	}
	ds, err := d.ToDataset()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "day.nc")
	overhead := testing.AllocsPerRun(5, func() { d.ToDataset() }) +
		testing.AllocsPerRun(5, func() { ncdf.WriteFile(path, ds) })

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	mallocs := make([]uint64, 0, 12)
	runDays(t, costModel(g, 12), 12, func() {
		runtime.ReadMemStats(&ms)
		mallocs = append(mallocs, ms.Mallocs)
	})
	// Day 0 allocates the recycled storage; the median skips the days on
	// which Run's path list happens to grow.
	perDay := make([]float64, 0, len(mallocs))
	for i := 2; i < len(mallocs); i++ {
		perDay = append(perDay, float64(mallocs[i]-mallocs[i-1]))
	}
	sort.Float64s(perDay)
	if got := perDay[len(perDay)/2]; got > overhead+stepBudget {
		t.Errorf("Run: %v allocs/day, budget %v (ToDataset+WriteFile) + %d", got, overhead, stepBudget)
	}
}

func BenchmarkStepDay(b *testing.B) {
	m := costModel(grid.Reduced, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.StepDay() == nil {
			b.Fatal("model exhausted")
		}
	}
}

func BenchmarkRunDay(b *testing.B) {
	m := costModel(grid.Reduced, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	runDays(b, m, b.N, nil)
}
