package multisite

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/esm"
	"repro/internal/grid"
	"repro/internal/ncdf"
)

// instant is one 6-hourly field set loaded on the GPU site.
type instant struct {
	day, step       int
	psl, vort, t500 *grid.Field
	channels        map[string]*grid.Field
}

// loadFields reads the TC-branch variables from daily files into
// per-instant field sets (the GPU-site-local analogue of the core
// workflow's tc_preprocess task).
func loadFields(files []string, g grid.Grid) ([]instant, error) {
	vars := []string{"PSL", "U850", "V850", "T500", "VORT850"}
	var out []instant
	for _, path := range files {
		_, dayOfYear, ok := esm.ParseFileName(path)
		if !ok {
			return nil, fmt.Errorf("multisite: unparseable model file %q", path)
		}
		vals, err := ncdf.ReadVarsFile(path, vars)
		if err != nil {
			return nil, err
		}
		perVar := make(map[string][]float32, len(vars))
		for i, v := range vars {
			perVar[v] = vals[i]
		}
		size := g.Size()
		for s := 0; s < esm.StepsPerDay; s++ {
			mk := func(name string) *grid.Field {
				f := grid.NewField(g)
				copy(f.Data, perVar[name][s*size:(s+1)*size])
				return f
			}
			psl, u, v := mk("PSL"), mk("U850"), mk("V850")
			t500, vort := mk("T500"), mk("VORT850")
			w := grid.NewField(g)
			for i := range w.Data {
				w.Data[i] = float32(math.Hypot(float64(u.Data[i]), float64(v.Data[i])))
			}
			out = append(out, instant{
				day: dayOfYear, step: s,
				psl: psl, vort: vort, t500: t500,
				channels: map[string]*grid.Field{
					"PSL": psl, "WSPD": w, "VORT850": vort, "T500": t500,
				},
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].day != out[j].day {
			return out[i].day < out[j].day
		}
		return out[i].step < out[j].step
	})
	return out, nil
}
