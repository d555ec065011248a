package esm

import (
	"math"

	"repro/internal/grid"
)

// EventConfig controls how many ground-truth extremes the simulator
// seeds per simulated year.
type EventConfig struct {
	// HeatWavesPerYear / ColdSpellsPerYear are Poisson-like mean counts
	// (realized deterministically from the run seed).
	HeatWavesPerYear  int
	ColdSpellsPerYear int
	// CyclonesPerYear is the number of tropical-cyclone tracks seeded.
	CyclonesPerYear int
	// WaveAmplitudeK is the peak temperature anomaly of seeded waves; it
	// must exceed the 5 K detection threshold of §5.3 for the events to
	// be detectable.
	WaveAmplitudeK float64
	// WaveMinDays / WaveMaxDays bound seeded wave durations. Detection
	// requires ≥ 6 days ("typically lasts six or more days").
	WaveMinDays, WaveMaxDays int
}

// DefaultEvents returns the standard seeding used by the experiments.
func DefaultEvents() EventConfig {
	return EventConfig{
		HeatWavesPerYear:  3,
		ColdSpellsPerYear: 2,
		CyclonesPerYear:   6,
		WaveAmplitudeK:    8,
		WaveMinDays:       6,
		WaveMaxDays:       12,
	}
}

// Wave is one seeded heat wave or cold spell: a smooth bump of
// temperature anomaly over a lat/lon box for a span of days.
type Wave struct {
	// Hot marks a heat wave; false is a cold spell.
	Hot bool
	// Year is the calendar year of onset.
	Year int
	// StartDay is the zero-based day-of-year of onset.
	StartDay int
	// Days is the duration.
	Days int
	// CenterLat/CenterLon locate the anomaly center in degrees.
	CenterLat, CenterLon float64
	// RadiusDeg is the e-folding radius in degrees.
	RadiusDeg float64
	// AmplitudeK is the peak anomaly magnitude (positive, sign applied
	// by Hot).
	AmplitudeK float64
}

// anomalyAt returns the additive temperature anomaly of the wave at the
// given cell and day-of-year, zero outside its active span.
func (w *Wave) anomalyAt(g grid.Grid, i, j, dayOfYear int) float64 {
	if dayOfYear < w.StartDay || dayOfYear >= w.StartDay+w.Days {
		return 0
	}
	lat, lon := g.Lat(i), g.Lon(j)
	dLon := math.Abs(lon - w.CenterLon)
	if dLon > 180 {
		dLon = 360 - dLon
	}
	d2 := ((lat-w.CenterLat)*(lat-w.CenterLat) + dLon*dLon) / (w.RadiusDeg * w.RadiusDeg)
	if d2 > 9 {
		return 0
	}
	a := w.AmplitudeK * math.Exp(-d2)
	if !w.Hot {
		a = -a
	}
	return a
}

// TrackPoint is one 6-hourly position of a seeded tropical cyclone.
type TrackPoint struct {
	// Day is the zero-based day-of-year; Step the 6-hourly index (0..3).
	Day, Step int
	// Lat/Lon locate the storm center in degrees.
	Lat, Lon float64
	// PressureDrop is the central sea-level-pressure deficit [Pa].
	PressureDrop float64
	// MaxWind is the peak tangential wind [m/s].
	MaxWind float64
}

// Cyclone is a seeded tropical-cyclone track with ground truth.
type Cyclone struct {
	// ID numbers storms within a run.
	ID int
	// Year of genesis.
	Year int
	// Basin is a label for the genesis region.
	Basin string
	// Track holds one point per 6-hourly step of the storm's life.
	Track []TrackPoint
}

// Active returns the track point for (day, step), if the storm is alive
// then.
func (c *Cyclone) Active(day, step int) (TrackPoint, bool) {
	for _, p := range c.Track {
		if p.Day == day && p.Step == step {
			return p, true
		}
	}
	return TrackPoint{}, false
}

// GroundTruth aggregates every event the simulator seeded.
type GroundTruth struct {
	Waves    []Wave
	Cyclones []Cyclone
}

// HeatWaves returns only the hot events.
func (gt *GroundTruth) HeatWaves() []Wave {
	var out []Wave
	for _, w := range gt.Waves {
		if w.Hot {
			out = append(out, w)
		}
	}
	return out
}

// ColdSpells returns only the cold events.
func (gt *GroundTruth) ColdSpells() []Wave {
	var out []Wave
	for _, w := range gt.Waves {
		if !w.Hot {
			out = append(out, w)
		}
	}
	return out
}

// seedWaves plans the year's heat waves and cold spells. Waves are kept
// inside the year and away from the calendar edges so duration-based
// indices see complete events.
func seedWaves(cfg Config, year int, rng *prng) []Wave {
	ev := *cfg.Events
	var out []Wave
	mk := func(hot bool) Wave {
		dur := ev.WaveMinDays
		if ev.WaveMaxDays > ev.WaveMinDays {
			dur += rng.Intn(ev.WaveMaxDays - ev.WaveMinDays + 1)
		}
		maxStart := cfg.DaysPerYear - dur - 1
		if maxStart < 1 {
			maxStart = 1
		}
		lat := -55 + 110*rng.Float64() // mid-latitudes and tropics
		return Wave{
			Hot:        hot,
			Year:       year,
			StartDay:   1 + rng.Intn(maxStart),
			Days:       dur,
			CenterLat:  lat,
			CenterLon:  360 * rng.Float64(),
			RadiusDeg:  10 + 10*rng.Float64(),
			AmplitudeK: ev.WaveAmplitudeK * (0.9 + 0.2*rng.Float64()),
		}
	}
	for k := 0; k < ev.HeatWavesPerYear; k++ {
		out = append(out, mk(true))
	}
	for k := 0; k < ev.ColdSpellsPerYear; k++ {
		out = append(out, mk(false))
	}
	return out
}

// basins lists TC genesis regions (lat range, lon range, name) loosely
// following observed activity.
var basins = []struct {
	name               string
	latMin, latMax     float64
	lonMin, lonMax     float64
	driftLat, driftLon float64
}{
	{"north-atlantic", 10, 20, 300, 340, 0.9, -2.4},
	{"west-pacific", 8, 18, 130, 160, 0.8, -2.0},
	{"east-pacific", 10, 16, 230, 260, 0.6, -2.2},
	{"south-indian", -18, -8, 60, 95, -0.8, -1.8},
	{"south-pacific", -18, -10, 160, 190, -0.9, -1.6},
}

// seedCyclones plans the year's TC tracks: genesis in a warm basin,
// westward + poleward drift (beta drift analogue), intensification then
// decay over a 3–6 day life, 6-hourly positions.
func seedCyclones(cfg Config, year, firstID int, rng *prng) []Cyclone {
	var out []Cyclone
	n := cfg.Events.CyclonesPerYear
	for k := 0; k < n; k++ {
		b := basins[rng.Intn(len(basins))]
		lifeDays := 3 + rng.Intn(4)
		steps := lifeDays * StepsPerDay
		maxStart := cfg.DaysPerYear - lifeDays - 1
		if maxStart < 1 {
			maxStart = 1
		}
		day0 := 1 + rng.Intn(maxStart)
		lat := b.latMin + (b.latMax-b.latMin)*rng.Float64()
		lon := b.lonMin + (b.lonMax-b.lonMin)*rng.Float64()
		peak := 2500 + 3500*rng.Float64() // 25–60 hPa deficit
		c := Cyclone{ID: firstID + k, Year: year, Basin: b.name}
		for s := 0; s < steps; s++ {
			// intensity: ramp from a non-trivial genesis strength to the
			// peak at 40% of life, then decay without fully vanishing, so
			// every active instant carries a detectable signature
			frac := float64(s) / float64(steps-1)
			var inten float64
			if frac < 0.4 {
				inten = 0.35 + 0.65*frac/0.4
			} else {
				inten = 1 - 0.65*(frac-0.4)/0.6
			}
			drop := peak * inten
			c.Track = append(c.Track, TrackPoint{
				Day:          day0 + s/StepsPerDay,
				Step:         s % StepsPerDay,
				Lat:          lat,
				Lon:          math.Mod(lon+360, 360),
				PressureDrop: drop,
				MaxWind:      15 + 45*inten,
			})
			// drift per 6 h with small jitter
			lat += b.driftLat/float64(StepsPerDay) + 0.15*rng.NormFloat64()
			lon += b.driftLon/float64(StepsPerDay) + 0.2*rng.NormFloat64()
		}
		out = append(out, c)
	}
	return out
}

// vortexRadiusDeg is the e-folding radius of the seeded vortex imprint.
const vortexRadiusDeg = 4.0

// imprintCyclone applies the storm's signature at a track point onto
// the instantaneous fields: a Gaussian sea-level-pressure depression,
// cyclonic tangential winds, a warm core at 500 hPa, heavy rain and
// matching 850 hPa vorticity.
func imprintCyclone(g grid.Grid, p TrackPoint, psl, u, v, t500, prect, vort []float32) {
	southern := p.Lat < 0
	reach := int(3 * vortexRadiusDeg / g.LatStep())
	ci, cj := g.CellOf(p.Lat, p.Lon)
	for di := -reach; di <= reach; di++ {
		i := ci + di
		if i < 0 || i >= g.NLat {
			continue
		}
		for dj := -reach; dj <= reach; dj++ {
			j := ((cj+dj)%g.NLon + g.NLon) % g.NLon
			lat, lon := g.Lat(i), g.Lon(j)
			dLon := lon - p.Lon
			if dLon > 180 {
				dLon -= 360
			} else if dLon < -180 {
				dLon += 360
			}
			dLat := lat - p.Lat
			r2 := (dLat*dLat + dLon*dLon) / (vortexRadiusDeg * vortexRadiusDeg)
			if r2 > 9 {
				continue
			}
			w := math.Exp(-r2)
			idx := g.Index(i, j)
			psl[idx] -= float32(p.PressureDrop * w)
			// tangential wind: v_t peaks near r = radius/sqrt(2)
			r := math.Sqrt(r2)
			vt := p.MaxWind * math.Sqrt2 * r * math.Exp(0.5-r2)
			// unit tangential direction (counter-clockwise in N hemisphere)
			if r > 1e-6 {
				tx := -dLat / (r * vortexRadiusDeg)
				ty := dLon / (r * vortexRadiusDeg)
				if southern {
					tx, ty = -tx, -ty
				}
				norm := math.Hypot(tx, ty)
				if norm > 1e-9 {
					u[idx] += float32(vt * tx / norm)
					v[idx] += float32(vt * ty / norm)
				}
			}
			t500[idx] += float32(6 * w) // warm core
			prect[idx] += float32(80 * w)
			sign := 1.0
			if southern {
				sign = -1
			}
			vort[idx] += float32(sign * 3e-4 * w * (1 - r2/4))
		}
	}
}
