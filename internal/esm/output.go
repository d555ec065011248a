package esm

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"repro/internal/ncdf"
)

// FileName returns the canonical daily output file name, e.g.
// "cm3_2040_d017.nc".
func FileName(year, dayOfYear int) string {
	return fmt.Sprintf("cm3_%04d_d%03d.nc", year, dayOfYear)
}

var fileRe = regexp.MustCompile(`^cm3_(\d{4})_d(\d{3})\.nc$`)

// ParseFileName extracts (year, dayOfYear) from a daily output path.
func ParseFileName(path string) (year, day int, ok bool) {
	m := fileRe.FindStringSubmatch(filepath.Base(path))
	if m == nil {
		return 0, 0, false
	}
	year, _ = strconv.Atoi(m[1])
	day, _ = strconv.Atoi(m[2])
	return year, day, true
}

// YearOf adapts ParseFileName for stream.YearBatcher.
func YearOf(path string) (int, bool) {
	y, _, ok := ParseFileName(path)
	return y, ok
}

// ToDataset converts a day's output into a GNC1 dataset with dims
// (time, lat, lon) and one variable per model field, matching the
// paper's daily-file contract. The variables share the day's storage.
func (d *DayOutput) ToDataset() (*ncdf.Dataset, error) {
	ds := ncdf.NewDataset()
	if err := ds.AddDim("time", StepsPerDay); err != nil {
		return nil, err
	}
	if err := ds.AddDim("lat", d.Grid.NLat); err != nil {
		return nil, err
	}
	if err := ds.AddDim("lon", d.Grid.NLon); err != nil {
		return nil, err
	}
	ds.Attrs["model"] = ncdf.String("CMCC-CM3-sim")
	ds.Attrs["year"] = ncdf.Int(int64(d.Year))
	ds.Attrs["day_of_year"] = ncdf.Int(int64(d.DayOfYear))
	ds.Attrs["steps_per_day"] = ncdf.Int(StepsPerDay)
	n := StepsPerDay * d.Grid.Size()
	if len(d.data) != len(Vars)*n {
		return nil, fmt.Errorf("esm: day output holds %d values, want %d", len(d.data), len(Vars)*n)
	}
	for v, name := range Vars {
		// the backing array is already in file order: no copy
		if _, err := ds.AddVar(name, []string{"time", "lat", "lon"}, d.data[v*n:(v+1)*n]); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// WriteDay writes the day's output into dir using the canonical name
// and returns the file path.
func (d *DayOutput) WriteDay(dir string) (string, error) {
	path, _, err := d.writeDay(dir, nil)
	return path, err
}

// writeDay builds the day's dataset once, writes it to disk, and hands
// the same in-memory dataset to onDataset — so an in-memory consumer
// (the tensor-exchange publisher) never re-reads the file it just
// watched land.
func (d *DayOutput) writeDay(dir string, onDataset func(path string, d *DayOutput, ds *ncdf.Dataset) error) (string, *ncdf.Dataset, error) {
	ds, err := d.ToDataset()
	if err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, FileName(d.Year, d.DayOfYear))
	if err := ncdf.WriteFile(path, ds); err != nil {
		return "", nil, err
	}
	if onDataset != nil {
		if err := onDataset(path, d, ds); err != nil {
			return "", nil, err
		}
	}
	return path, ds, nil
}

// RunOptions controls a full simulation-to-disk run.
type RunOptions struct {
	// Dir is the output directory (must exist).
	Dir string
	// InterDayDelay, when positive, sleeps between daily files so that
	// streaming consumers observe gradual production like a real ESM.
	InterDayDelay time.Duration
	// OnDay, when non-nil, is called with each file path after it lands.
	OnDay func(path string, d *DayOutput)
	// OnDataset, when non-nil, receives each day's in-memory dataset
	// right after its file lands — the zero-copy tap for publishing
	// model output to an in-memory exchange without re-reading the file.
	// The dataset's variable slices are shared with what was written;
	// consumers must treat them as read-only. An error aborts the run.
	//
	// Run recycles one day's storage for the whole run: the DayOutput
	// and Dataset passed to OnDay and OnDataset are valid only until the
	// callback returns, and a callback that keeps data must copy it.
	OnDataset func(path string, d *DayOutput, ds *ncdf.Dataset) error
}

// Run executes the whole configured span, writing one file per day, and
// returns the paths in production order. It is the "CMCC-CM3 model
// simulation ... runs iteratively for producing the output data (one
// NetCDF file for each day of simulation) until the simulation run is
// completed" (paper step 3).
func (m *Model) Run(opt RunOptions) ([]string, error) {
	var paths []string
	var d *DayOutput // recycled from day to day
	for {
		if d = m.stepDay(d); d == nil {
			return paths, nil
		}
		p, _, err := d.writeDay(opt.Dir, opt.OnDataset)
		if err != nil {
			return paths, err
		}
		paths = append(paths, p)
		if opt.OnDay != nil {
			opt.OnDay(p, d)
		}
		if opt.InterDayDelay > 0 {
			time.Sleep(opt.InterDayDelay)
		}
	}
}
