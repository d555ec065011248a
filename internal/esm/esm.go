// Package esm implements a synthetic coupled Earth System Model that
// stands in for CMCC-CM3 (CESM-based CAM6 atmosphere + NEMO4 ocean,
// paper §4.2.3). The real model needs a supercomputer; this one
// reproduces the model's *output contract* so that every downstream
// component of the workflow — streaming file detection, datacube
// analytics, heat/cold-wave indices, CNN-based tropical-cyclone
// localization and deterministic tracking — exercises the same code
// paths it would against real simulation data.
//
// The simulator couples a simple atmosphere (zonal climatology, seasonal
// and diurnal cycles, AR(1)-correlated weather noise, jet-stream winds)
// with a slab ocean (SST relaxing toward surface air temperature, sea
// ice below freezing), exchanging fluxes every timestep like the real
// coupled system ("every few minutes the heat, momentum and mass fluxes
// are sent from the atmosphere to the ocean and the sea surface
// temperature ... sent from the ocean to the atmosphere").
//
// Crucially, the simulator *seeds* ground-truth extreme events — heat
// waves, cold spells and tropical cyclones — whose exact location,
// timing and amplitude are recorded. Downstream detection skill can
// therefore be measured, which real model output cannot support.
package esm

import (
	"fmt"
	"math"

	"repro/internal/grid"
)

// StepsPerDay is the model output cadence: 6-hourly, 4 per day (§5.2).
const StepsPerDay = 4

// Scenario selects the greenhouse-gas forcing pathway, provided "year by
// year through I/O, corresponding to historical concentrations and/or
// future plausible projections".
type Scenario int

// Supported forcing scenarios.
const (
	// Historical applies no additional warming trend.
	Historical Scenario = iota
	// SSP245 is a moderate pathway (+0.025 K/year).
	SSP245
	// SSP585 is a high-emission pathway (+0.06 K/year).
	SSP585
)

func (s Scenario) String() string {
	switch s {
	case Historical:
		return "historical"
	case SSP245:
		return "ssp245"
	case SSP585:
		return "ssp585"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// WarmingRate returns the scenario's linear surface warming in K/year.
func (s Scenario) WarmingRate() float64 {
	switch s {
	case SSP245:
		return 0.025
	case SSP585:
		return 0.06
	default:
		return 0
	}
}

// Vars lists the ~20 single-precision variables each daily file holds,
// mirroring the paper's §5.2 ("precipitation rate, sea level pressure,
// temperature, wind speed, etc.").
var Vars = []string{
	"TREFHT",  // reference-height air temperature [K]
	"TS",      // surface temperature [K]
	"PSL",     // sea-level pressure [Pa]
	"U850",    // zonal wind at 850 hPa [m/s]
	"V850",    // meridional wind at 850 hPa [m/s]
	"U10",     // 10 m zonal wind [m/s]
	"V10",     // 10 m meridional wind [m/s]
	"WSPD10",  // 10 m wind speed [m/s]
	"PRECT",   // total precipitation rate [mm/day]
	"SST",     // sea-surface temperature [K]
	"ICEFRAC", // sea-ice fraction [0..1]
	"Q850",    // specific humidity at 850 hPa [g/kg]
	"Z500",    // 500 hPa geopotential height [m]
	"T500",    // 500 hPa temperature [K]
	"VORT850", // relative vorticity at 850 hPa [1/s]
	"CLDTOT",  // total cloud fraction [0..1]
	"FLNT",    // net longwave flux at TOA [W/m2]
	"FSNT",    // net shortwave flux at TOA [W/m2]
	"TAUX",    // zonal surface stress [N/m2]
	"TAUY",    // meridional surface stress [N/m2]
}

// Config parameterizes a model run.
type Config struct {
	// Grid is the output resolution. Zero value defaults to grid.Reduced;
	// the paper's native grid is grid.CMCCCM3 (768×1152).
	Grid grid.Grid
	// StartYear is the first simulated calendar year (e.g. 2040).
	StartYear int
	// Years is the projection span.
	Years int
	// DaysPerYear shortens the calendar for tests; zero means 365.
	DaysPerYear int
	// Seed drives all stochastic components; equal seeds give bit-equal
	// runs.
	Seed int64
	// Scenario selects GHG forcing.
	Scenario Scenario
	// Events configures seeded extremes; nil uses DefaultEvents.
	Events *EventConfig
}

func (c Config) withDefaults() Config {
	if c.Grid.NLat == 0 || c.Grid.NLon == 0 {
		c.Grid = grid.Reduced
	}
	if c.DaysPerYear <= 0 {
		c.DaysPerYear = 365
	}
	if c.StartYear == 0 {
		c.StartYear = 2040
	}
	if c.Years <= 0 {
		c.Years = 1
	}
	if c.Events == nil {
		ev := DefaultEvents()
		c.Events = &ev
	}
	return c
}

// Climatology returns the long-term mean near-surface temperature [K]
// for a grid cell and day-of-year, before weather noise, events and
// scenario warming. The heat/cold-wave baseline ("historical averages
// computed over a 20-year period", §5.3) is exactly this function, so
// index pipelines can compare against the true climatology.
func Climatology(g grid.Grid, i, j int, dayOfYear, daysPerYear int) float64 {
	return climatologyZonal(g.Lat(i), dayOfYear, daysPerYear) + climatologyLon(g.Lon(j))
}

// climatologyZonal is the part of Climatology that depends only on
// latitude and day, so StepDay computes it once per row.
func climatologyZonal(lat float64, dayOfYear, daysPerYear int) float64 {
	// zonal mean: warm equator, cold poles
	base := 288.0 - 45.0*math.Pow(math.Abs(lat)/90, 1.6)
	// seasonal cycle: amplitude grows poleward, antiphase across
	// hemispheres; around day 15 the north is near its winter minimum
	// (austral summer peak).
	phase := 2 * math.Pi * (float64(dayOfYear) - 15) / float64(daysPerYear)
	amp := 1.0 + 14.0*math.Abs(lat)/90
	if lat >= 0 {
		base -= amp * math.Cos(phase)
	} else {
		base += amp * math.Cos(phase)
	}
	return base
}

// climatologyLon is Climatology's weak zonal asymmetry (continents vs
// oceans analogue).
func climatologyLon(lon float64) float64 { return 2.0 * math.Sin(2*lon*math.Pi/180) }

// DiurnalAnomaly returns the additive temperature offset [K] of a
// 6-hourly step (0..3): coldest near 06h, warmest near 15h.
func DiurnalAnomaly(step int) float64 {
	// steps at 00,06,12,18h
	switch step % StepsPerDay {
	case 0:
		return -1.5
	case 1:
		return -3.0
	case 2:
		return 2.5
	default:
		return 2.0
	}
}
