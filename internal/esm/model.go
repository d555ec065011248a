package esm

import (
	"fmt"
	"math"

	"repro/internal/grid"
)

// DayOutput is one simulated day: StepsPerDay instantaneous fields for
// every output variable.
type DayOutput struct {
	// Year is the calendar year, DayOfYear the zero-based day index.
	Year, DayOfYear int
	// Grid is the output grid.
	Grid grid.Grid
	// Steps[s][v] is the field of variable Vars[v] at 6-hourly step s, a
	// view into data.
	Steps [][]grid.Field
	// data backs every field in the daily file's order: variable-major
	// in Vars order, then (time, lat, lon).
	data []float32
}

// varIndex maps a variable name to its position in Vars.
var varIndex = func() map[string]int {
	m := make(map[string]int, len(Vars))
	for i, v := range Vars {
		m[v] = i
	}
	return m
}()

// newDayOutput allocates a day's storage: one backing array and the
// field views into it.
func newDayOutput(g grid.Grid) *DayOutput {
	size := g.Size()
	d := &DayOutput{Grid: g, Steps: make([][]grid.Field, StepsPerDay), data: make([]float32, len(Vars)*StepsPerDay*size)}
	fields := make([]grid.Field, StepsPerDay*len(Vars))
	for s := range d.Steps {
		d.Steps[s] = fields[s*len(Vars) : (s+1)*len(Vars)]
		for v := range Vars {
			off := (v*StepsPerDay + s) * size
			d.Steps[s][v] = grid.Field{Grid: g, Data: d.data[off : off+size : off+size]}
		}
	}
	return d
}

// Field returns the field of variable v at step s.
func (d *DayOutput) Field(s int, v string) (*grid.Field, error) {
	if s < 0 || s >= len(d.Steps) {
		return nil, fmt.Errorf("esm: step %d out of range", s)
	}
	vi, ok := varIndex[v]
	if !ok {
		return nil, fmt.Errorf("esm: unknown variable %q", v)
	}
	return &d.Steps[s][vi], nil
}

// Model is the running coupled system.
type Model struct {
	cfg Config
	gt  GroundTruth

	noiseT *noiseField // temperature weather noise [K]
	noiseP *noiseField // pressure noise [hPa-scale]
	noiseW *noiseField // wind noise [m/s]

	sst *grid.Field // slab-ocean state

	absDay int // days elapsed since run start

	// Scratch that StepDay reuses from day to day; none of it is
	// prognostic state or reachable from a DayOutput.
	baseT    []float32  // daily base temperature
	climLon  []float64  // climatologyLon per column
	waves    []*Wave    // waves active on the current day
	cyclones []*Cyclone // cyclones of the current year
}

// NewModel builds a model, seeding all ground-truth events for the full
// configured span.
func NewModel(cfg Config) *Model {
	cfg = cfg.withDefaults()
	m := &Model{cfg: cfg}

	// Independent deterministic sub-streams.
	weatherRng := newPRNG(cfg.Seed*7919 + 1)
	m.noiseT = newNoiseField(cfg.Grid, weatherRng, 0.75, 1.1)
	m.noiseP = newNoiseField(cfg.Grid, newPRNG(cfg.Seed*7919+2), 0.7, 2.2)
	m.noiseW = newNoiseField(cfg.Grid, newPRNG(cfg.Seed*7919+3), 0.6, 2.0)

	stormID := 1
	for y := 0; y < cfg.Years; y++ {
		year := cfg.StartYear + y
		evRng := newPRNG(cfg.Seed ^ int64(year)*104729)
		m.gt.Waves = append(m.gt.Waves, seedWaves(cfg, year, evRng)...)
		storms := seedCyclones(cfg, year, stormID, evRng)
		stormID += len(storms)
		m.gt.Cyclones = append(m.gt.Cyclones, storms...)
	}

	m.baseT = make([]float32, cfg.Grid.Size())
	m.climLon = make([]float64, cfg.Grid.NLon)
	for j := range m.climLon {
		m.climLon[j] = climatologyLon(cfg.Grid.Lon(j))
	}

	// Initialize the slab ocean at day-0 climatology.
	m.sst = grid.NewField(cfg.Grid)
	for i := 0; i < cfg.Grid.NLat; i++ {
		for j := 0; j < cfg.Grid.NLon; j++ {
			m.sst.Data[cfg.Grid.Index(i, j)] = float32(Climatology(cfg.Grid, i, j, 0, cfg.DaysPerYear))
		}
	}
	return m
}

// Config returns the effective (defaulted) configuration.
func (m *Model) Config() Config { return m.cfg }

// GroundTruth exposes the seeded events for skill evaluation.
func (m *Model) GroundTruth() *GroundTruth { return &m.gt }

// TotalDays is the full run length in days.
func (m *Model) TotalDays() int { return m.cfg.Years * m.cfg.DaysPerYear }

// DaysCompleted reports how many days have been simulated so far.
func (m *Model) DaysCompleted() int { return m.absDay }

// Done reports whether the run is complete.
func (m *Model) Done() bool { return m.absDay >= m.TotalDays() }

// StepDay advances the coupled system one day and returns its output,
// which the caller owns. It returns nil once the configured span is
// exhausted.
func (m *Model) StepDay() *DayOutput { return m.stepDay(nil) }

// stepDay is StepDay into out's storage (every field is overwritten),
// or into fresh storage when out is nil.
func (m *Model) stepDay(out *DayOutput) *DayOutput {
	if m.Done() {
		return nil
	}
	cfg := m.cfg
	g := cfg.Grid
	yearIdx := m.absDay / cfg.DaysPerYear
	year := cfg.StartYear + yearIdx
	doy := m.absDay % cfg.DaysPerYear
	warming := cfg.Scenario.WarmingRate() * float64(yearIdx)
	if out == nil {
		out = newDayOutput(g)
	}
	out.Year, out.DayOfYear = year, doy

	// the day's events, so no cell loop scans every year's
	m.waves, m.cyclones = m.waves[:0], m.cyclones[:0]
	for wi := range m.gt.Waves {
		if w := &m.gt.Waves[wi]; w.Year == year && doy >= w.StartDay && doy < w.StartDay+w.Days {
			m.waves = append(m.waves, w)
		}
	}
	for ci := range m.gt.Cyclones {
		if c := &m.gt.Cyclones[ci]; c.Year == year {
			m.cyclones = append(m.cyclones, c)
		}
	}

	// --- atmosphere daily base state ---------------------------------
	nT, nP, nW := m.noiseT.step().Data, m.noiseP.step().Data, m.noiseW.step().Data
	baseT, sst := m.baseT, m.sst.Data
	for i := 0; i < g.NLat; i++ {
		zonal := climatologyZonal(g.Lat(i), doy, cfg.DaysPerYear)
		for j := 0; j < g.NLon; j++ {
			idx := g.Index(i, j)
			t := zonal + m.climLon[j] + warming + float64(nT[idx])
			for _, w := range m.waves {
				t += w.anomalyAt(g, i, j, doy)
			}
			baseT[idx] = float32(t)
		}
	}

	// --- ocean coupling: SST relaxes toward surface air temperature ---
	const relaxDays = 20.0
	for idx := range sst {
		sst[idx] += (baseT[idx] - sst[idx]) / relaxDays
	}

	for s := 0; s < StepsPerDay; s++ {
		// resolve the step's field slices once, not per cell
		fld := func(name string) []float32 { return out.Steps[s][varIndex[name]].Data }
		trefht, ts, sstOut, icefrac := fld("TREFHT"), fld("TS"), fld("SST"), fld("ICEFRAC")
		psl, u850, v850, u10, v10 := fld("PSL"), fld("U850"), fld("V850"), fld("U10"), fld("V10")
		q850, t500, z500, prect := fld("Q850"), fld("T500"), fld("Z500"), fld("PRECT")
		cldtot, fsnt, flnt, vort850 := fld("CLDTOT"), fld("FSNT"), fld("FLNT"), fld("VORT850")
		wspd10, taux, tauy := fld("WSPD10"), fld("TAUX"), fld("TAUY")

		diurnal := DiurnalAnomaly(s)
		for i := 0; i < g.NLat; i++ {
			// latitude-only terms, once per row
			lat := g.Lat(i)
			jet := 12*math.Exp(-math.Pow((math.Abs(lat)-45)/12, 2)) - 4*math.Exp(-math.Pow(lat/12, 2))
			pslZonal := 101325 + 800*math.Cos(2*lat*math.Pi/180)
			// base precipitation: ITCZ band plus humidity scaling
			itcz := 6 * math.Exp(-math.Pow(lat/10, 2))
			cosLat := math.Cos(lat * math.Pi / 180)
			for j := 0; j < g.NLon; j++ {
				idx := g.Index(i, j)
				t := float64(baseT[idx]) + diurnal
				sstK := float64(sst[idx])

				trefht[idx] = float32(t)
				ts[idx] = float32(0.7*t + 0.3*sstK)
				sstOut[idx] = float32(sstK)
				icefrac[idx] = float32(iceFraction(sstK))

				psl[idx] = float32(pslZonal + 120*float64(nP[idx]))

				u := jet + float64(nW[idx])
				v := 0.6 * float64(nW[(idx+g.NLon/2)%len(nW)])
				u850[idx] = float32(u)
				v850[idx] = float32(v)
				u10[idx] = float32(0.6 * u)
				v10[idx] = float32(0.6 * v)

				q := 8 * math.Exp((t-288)/15)
				if q > 25 {
					q = 25
				}
				q850[idx] = float32(q)
				t500[idx] = float32(t - 30)
				z500[idx] = float32(5600 + 7*(t-288))

				pr := itcz * (0.5 + q/16)
				if n := float64(nT[idx]); n > 1 {
					pr += 2 * (n - 1)
				}
				prect[idx] = float32(pr)

				cld := 1 / (1 + math.Exp(-(q-9)/3))
				cldtot[idx] = float32(cld)
				fsnt[idx] = float32(340 * (1 - 0.5*cld) * cosLat)
				flnt[idx] = float32(2.2 * (t - 190) * (1 - 0.35*cld))
				vort850[idx] = float32(2e-5 * float64(nW[idx]))
			}
		}
		// cyclone imprints at this step
		for _, c := range m.cyclones {
			if p, ok := c.Active(doy, s); ok {
				imprintCyclone(g, p, psl, u850, v850, t500, prect, vort850)
			}
		}
		// derived fields
		for idx := range u10 {
			u, v := float64(u10[idx]), float64(v10[idx])
			sp := math.Hypot(u, v)
			wspd10[idx] = float32(sp)
			taux[idx] = float32(0.0015 * sp * u)
			tauy[idx] = float32(0.0015 * sp * v)
		}
	}
	m.absDay++
	return out
}

// iceFraction is a smooth ramp from open water to full cover as SST
// falls through the freezing band.
func iceFraction(sstK float64) float64 {
	const freeze = 271.35
	switch {
	case sstK >= freeze+1:
		return 0
	case sstK <= freeze-2:
		return 1
	default:
		return (freeze + 1 - sstK) / 3
	}
}
