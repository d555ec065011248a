package core

// Exchange-routed data handoff (Config.Exchange): the ESM task
// publishes each simulated day's variables into the in-memory tensor
// exchange the moment the daily file lands, and the per-year consumer
// tasks prefer the published tensors over re-reading the files. The
// file path stays the durable record and the universal fallback — a
// consumer that misses the exchange (retried task, drained entry,
// external producer) falls back to the exact bytes on disk, so both
// paths produce identical results.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/datacube"
	"repro/internal/esm"
	"repro/internal/grid"
	"repro/internal/ncdf"
	"repro/internal/stream"
	"repro/internal/texchange"
)

// exchangeWaitTimeout bounds how long a consumer waits for a tensor
// that the production order says should already be published. Publish
// happens before the file becomes visible to the directory watcher, so
// a miss here means the entry is genuinely gone (consumed, dropped or
// externally produced) and the file fallback is the answer.
const exchangeWaitTimeout = 2 * time.Second

// exchangeVars are the variables the ESM task publishes per day: the
// TC branch inputs plus the temperature the datacube import consumes.
var exchangeVars = append([]string{"TREFHT"}, tcVars...)

// exTensorName is the exchange naming scheme for daily model output.
func exTensorName(year, day int, varName string) string {
	return fmt.Sprintf("esm/%04d/d%03d/%s", year, day, varName)
}

// publishDay publishes one day's exchange variables from the in-memory
// dataset the daily file was written from, without re-reading the file.
// The exchange keeps a tensor's backing slice until a consumer takes it,
// and esm.Model.Run recycles the dataset's storage for the next day, so
// each published variable is copied (six of the day's twenty). A closed
// exchange silently disables publishing (consumers fall back to files).
func publishDay(x *texchange.Exchange, d *esm.DayOutput, ds *ncdf.Dataset) error {
	meta := map[string]string{
		"year": fmt.Sprint(d.Year),
		"day":  fmt.Sprint(d.DayOfYear),
	}
	for _, name := range exchangeVars {
		v, err := ds.Var(name)
		if err != nil {
			return err
		}
		t := texchange.Tensor{
			Name:  exTensorName(d.Year, d.DayOfYear, name),
			Shape: []int{esm.StepsPerDay, d.Grid.NLat, d.Grid.NLon},
			Data:  append([]float32(nil), v.Data...),
			Meta:  meta,
		}
		if _, err := x.Publish(t); err != nil {
			if err == texchange.ErrClosed {
				return nil
			}
			return err
		}
	}
	return nil
}

// takeDayVars pulls one day's variables out of the exchange, removing
// the consumed entries. ok=false means at least one tensor is missing
// and the caller must fall back to the file.
func takeDayVars(x *texchange.Exchange, year, day int, vars []string) (map[string][]float32, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), exchangeWaitTimeout)
	defer cancel()
	out := make(map[string][]float32, len(vars))
	for _, v := range vars {
		t, err := x.Wait(ctx, exTensorName(year, day, v), 1)
		if err != nil {
			return nil, false
		}
		out[v] = t.Data
	}
	// Remove only after the whole set resolved, so a partial miss leaves
	// the exchange ready for the file-fallback retry.
	for _, v := range vars {
		x.Remove(exTensorName(year, day, v))
	}
	return out, true
}

// loadTCFieldsExchange is loadTCFields preferring the exchange: per
// day, the TC variables are taken from published tensors; the first
// miss switches the rest of the year to the file path (if day d is
// gone, production order says later days were not published either).
func loadTCFieldsExchange(x *texchange.Exchange, files []string, g grid.Grid) ([]stepFields, error) {
	var out []stepFields
	useFiles := false
	for _, path := range files {
		year, dayOfYear, ok := esm.ParseFileName(path)
		if !ok {
			return nil, fmt.Errorf("core: unparseable model file %q", path)
		}
		var perVar map[string][]float32
		if !useFiles {
			if pv, hit := takeDayVars(x, year, dayOfYear, tcVars); hit {
				perVar = pv
			} else {
				useFiles = true
			}
		}
		if perVar == nil {
			pv, err := readDayVars(path)
			if err != nil {
				return nil, err
			}
			perVar = pv
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

// importYearExchange builds the year's temperature cube from published
// TREFHT tensors — one in-memory dataset per day, concatenated along
// time — with zero storage reads. Any miss or failure returns an error
// and the caller falls back to Engine.ImportFiles.
func importYearExchange(eng *datacube.Engine, x *texchange.Exchange, batch stream.YearBatch, g grid.Grid) (*datacube.Cube, error) {
	parts := make([]*datacube.Cube, 0, len(batch.Files))
	defer func() {
		for _, p := range parts {
			_ = eng.Delete(p.ID())
		}
	}()
	for _, path := range batch.Files {
		year, day, ok := esm.ParseFileName(path)
		if !ok {
			return nil, fmt.Errorf("core: unparseable model file %q", path)
		}
		pv, hit := takeDayVars(x, year, day, []string{"TREFHT"})
		if !hit {
			return nil, fmt.Errorf("core: exchange miss for %s", exTensorName(year, day, "TREFHT"))
		}
		ds := ncdf.NewDataset()
		if err := ds.AddDim("time", esm.StepsPerDay); err != nil {
			return nil, err
		}
		if err := ds.AddDim("lat", g.NLat); err != nil {
			return nil, err
		}
		if err := ds.AddDim("lon", g.NLon); err != nil {
			return nil, err
		}
		if _, err := ds.AddVar("TREFHT", []string{"time", "lat", "lon"}, pv["TREFHT"]); err != nil {
			return nil, err
		}
		c, err := eng.ImportDataset(ds, "TREFHT", "time")
		if err != nil {
			return nil, err
		}
		parts = append(parts, c)
	}
	return eng.Concat(parts)
}
