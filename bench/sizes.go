package main

import (
	"fmt"

	"repro/internal/grid"
)

// The five workloads. Every run exercises all three north-star paths,
// because the driver wants every end-to-end metric from every run; the
// workload picks the stage that gets most of the measuring time (the
// primary) while the others run as short controls of the same size.
var workloadNames = []string{"wf-coupled", "wf-attach", "query-fused", "query-bulk", "api-exec"}

// clients is P: client goroutines/connections, workflow workers and
// datacube servers. The sandbox has two cores.
const clients = 2

// shards is the number of shard cubeservers behind the coordinator.
const shards = 4

// latencyLimitMS is the api-exec limit on the p99 of due-to-terminal
// latency at every paced rate; hpcwaas.rate_ok is the
// highest paced rate that meets it without a standing backlog.
const latencyLimitMS = 25.0

// sizes fixes how much work one operation of each stage is. The seed
// changes the contents of the inputs, never their size.
type sizes struct {
	name string

	// workflow stages: core.Run on grid for years × days.
	grid        grid.Grid
	years, days int
	// localizer training set: trainSeeds simulated years of trainDays.
	trainSeeds, trainDays, trainEpochs int

	// query stages: a (lat × lon) × steps temperature cube; the baseline
	// has steps/4 daily values.
	cubeLat, cubeLon, cubeSteps int

	// api stage: the two paced rates (per second), the nominal drain
	// capacity used to size the drain phase, FNV rounds of the app.
	rates        [2]int
	drainNominal int
	appRounds    int
	// rounds is the number of passes over the stages the measuring time
	// is cut into (odd, so that the median of the rounds is one of them and
	// survives two spoiled rounds out of five); setupRepeats the number of
	// complete set-ups timed.
	rounds        int
	setupRepeats  int
	replayRepeats int
}

var (
	// benchSizes is what the driver runs: one workload, three set-ups
	// and every control stage fit in well under 30 s on two cores.
	benchSizes = sizes{
		name: "bench",
		grid: grid.Reduced, years: 2, days: 30,
		trainSeeds: 1, trainDays: 10, trainEpochs: 1,
		cubeLat: 48, cubeLon: 96, cubeSteps: 360,
		rates: [2]int{1000, 2000}, drainNominal: 5000, appRounds: 2000,
		rounds: 5, setupRepeats: 3, replayRepeats: 5,
	}
	// quickSizes is for the smoke test: every code path, no steadiness.
	quickSizes = sizes{
		name: "quick",
		grid: grid.Grid{NLat: 24, NLon: 48}, years: 1, days: 8,
		trainSeeds: 1, trainDays: 4, trainEpochs: 1,
		cubeLat: 24, cubeLon: 48, cubeSteps: 40,
		rates: [2]int{200, 400}, drainNominal: 1000, appRounds: 50,
		rounds: 2, setupRepeats: 1, replayRepeats: 1,
	}
)

func (s sizes) cubeRows() int   { return s.cubeLat * s.cubeLon }
func (s sizes) cubeMB() float64 { return float64(s.cubeRows()*s.cubeSteps*4) / 1e6 }

// stage names double as workload names: a workload's primary stage is
// the one it is named after.
type stagePlan struct {
	stage   string
	seconds float64
	primary bool
}

// controlShare is the part of the measuring time each control stage
// gets; the primary stage gets what the controls leave.
const controlShare = 1.0 / 7

// plan splits the measuring time of one run between its stages.
// wf-attach runs a coupled control as well, because wf_tail_s only
// exists when the ESM runs in-process.
func plan(workload string, seconds float64) ([]stagePlan, error) {
	known := false
	var out []stagePlan
	controls := 0
	for _, st := range workloadNames {
		if st == workload {
			known = true
			out = append(out, stagePlan{stage: st, primary: true})
			continue
		}
		if st == "wf-attach" {
			continue // only ever a primary
		}
		out = append(out, stagePlan{stage: st, seconds: seconds * controlShare})
		controls++
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	for i := range out {
		if out[i].primary {
			out[i].seconds = seconds * (1 - float64(controls)*controlShare)
		}
	}
	return out, nil
}
