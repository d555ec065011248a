package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison and the smoke
// test read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSet is one set of untraced runs: workload → seed → metric → value.
type runSet map[string]map[int64]map[string]float64

// loadSet reads the untraced results of one set: a file holding one
// result or an array of them, or every *.json of a directory. A set
// holds one run per workload and seed.
func loadSet(path string) (runSet, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	set := runSet{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var runs []result
		if err := json.Unmarshal(data, &runs); err != nil {
			runs = make([]result, 1)
			if err := json.Unmarshal(data, &runs[0]); err != nil {
				continue // a trace file
			}
		}
		for _, r := range runs {
			if r.Trace || r.Workload == "" {
				continue
			}
			if !r.Correct {
				return nil, fmt.Errorf("%s: the %s run of seed %d was not correct (%d of %d operations failed)", f, r.Workload, r.Seed, r.Failed, r.Attempted)
			}
			if set[r.Workload] == nil {
				set[r.Workload] = map[int64]map[string]float64{}
			}
			if set[r.Workload][r.Seed] != nil {
				return nil, fmt.Errorf("%s: a second %s run of seed %d", path, r.Workload, r.Seed)
			}
			set[r.Workload][r.Seed] = map[string]float64{}
			for name, m := range r.Metrics {
				set[r.Workload][r.Seed][name] = m.Value
			}
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s holds no untraced result files", path)
	}
	return set, nil
}

// pairs lines up the two sets' runs of one workload by seed. Runs of
// one seed have the same inputs and, when the sets were taken in turns
// (A, B, B, A, … seed after seed), nearly the same weather on a shared
// host, which their ratio then cancels.
func pairs(a, b runSet, workload, metric string) (va, vb []float64, err error) {
	if len(a[workload]) != len(b[workload]) {
		return nil, nil, fmt.Errorf("%s: %d runs in A, %d in B", workload, len(a[workload]), len(b[workload]))
	}
	seeds := make([]int64, 0, len(a[workload]))
	for seed := range a[workload] {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, seed := range seeds {
		x, okA := a[workload][seed][metric]
		y, okB := b[workload][seed][metric]
		if !okA || !okB {
			return nil, nil, fmt.Errorf("%s seed %d: %s is not in both sets", workload, seed, metric)
		}
		va, vb = append(va, x), append(vb, y)
	}
	return va, vb, nil
}

// comparison is one row of -compare.
type comparison struct {
	verdict string
	worse   float64 // median share by which B is worse than A, pair by pair
	spread  float64 // quartile distance of those shares
	wins    int     // pairs in which B reads better
}

// compareRuns applies a metric's direction and bound to paired runs.
// Within the bound is "same"; beyond it "worse" or "better". When the
// pairs disagree by more than the bound among themselves the row is
// "unresolved", unless every single pair points the same way.
func compareRuns(a, b []float64, higherBetter bool, bound float64) comparison {
	shares := make([]float64, len(a))
	c := comparison{}
	for i := range a {
		shares[i] = (b[i] - a[i]) / a[i]
		if higherBetter {
			shares[i] = -shares[i]
		}
		if shares[i] < 0 {
			c.wins++
		}
	}
	s := sorted(shares)
	c.worse, c.spread = median(s), iqr(s)
	switch {
	case c.spread > bound && s[len(s)-1] < 0:
		c.verdict = "better"
	case c.spread > bound && s[0] > 0:
		c.verdict = "worse"
	case c.spread > bound:
		c.verdict = "unresolved"
	case c.worse > bound:
		c.verdict = "worse"
	case c.worse < -bound:
		c.verdict = "better"
	default:
		c.verdict = "same"
	}
	return c
}

// compareSets prints one row per workload × end-to-end metric and
// reports whether B is free of worse and unresolved rows.
func compareSets(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-12s %-18s %12s %12s %8s %8s %6s %6s  %s\n",
		"workload", "metric", "A median", "B median", "B worse", "spread", "B wins", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb, err := pairs(a, b, wl.Name, m.Name)
			if err != nil {
				return false, err
			}
			c := compareRuns(va, vb, m.Better == "higher", m.Bound)
			if c.verdict == "worse" || c.verdict == "unresolved" {
				ok = false
			}
			fmt.Fprintf(w, "%-12s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %3d/%-2d %5.0f%%  %s\n",
				wl.Name, m.Name, median(va), median(vb), 100*c.worse, 100*c.spread, c.wins, len(va), 100*m.Bound, c.verdict)
		}
	}
	return ok, nil
}
