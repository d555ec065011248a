// Command bench is the repository benchmark: five workloads over the
// three north-star paths (core.Run workflow, HPCWaaS request path,
// datacube query path), eleven end-to-end metrics from untraced runs,
// and per-layer attribution from a separate traced run. It links the
// program's packages and drives them through their public functions;
// nothing in the program knows it is being measured.
//
//	go run -C bench . --workload query-fused --seed 42 --seconds 18 --trace 0
//	go run -C bench . -compare setA/ setB/
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// value is one reported number with the count of samples behind it.
type value struct {
	V float64
	N int
}

// collector gathers operations attempted and failed, raw samples and
// the values derived from them. Stages write to it concurrently.
type collector struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	series    map[string][]float64
	ops       map[string]int // operations behind a per-round series
	values    map[string]value
}

func newCollector() *collector {
	return &collector{series: map[string][]float64{}, ops: map[string]int{}, values: map[string]value{}}
}

// op counts one operation; a non-nil error makes it a failed one. A
// refused, errored or wrong-answer operation is a failure alike.
func (c *collector) op(err error, what string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, what+": "+err.Error())
		}
	}
}

// sample records one value of a series: an operation's latency, a
// workflow run's makespan.
func (c *collector) sample(name string, v float64) { c.perRound(name, v, 0) }

// perRound records the value a round produced for a metric and the
// number of operations behind it.
func (c *collector) perRound(name string, v float64, ops int) {
	c.mu.Lock()
	c.series[name] = append(c.series[name], v)
	c.ops[name] += ops
	c.mu.Unlock()
}

func (c *collector) set(name string, v float64, n int) {
	c.mu.Lock()
	c.values[name] = value{v, n}
	c.mu.Unlock()
}

// get returns a set value, or else the median of the samples recorded
// under the name: one per workflow run, or one per round.
func (c *collector) get(name string) value {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.values[name]; ok {
		return v
	}
	n := len(c.series[name])
	if ops := c.ops[name]; ops > 0 {
		n = ops
	}
	return value{median(c.series[name]), n}
}

// derive computes the metrics that pool the operations of all rounds:
// the quantile metrics of metrics.go, and throughputs from median
// latencies. A pooled median shrugs off a round a noisy neighbour
// spoiled. Rates (query_per_s, exec_drain_per_s) cannot be pooled that
// way, so they are taken per round and the median of the rounds is
// reported (collector.get).
func (b *bench) derive() {
	c := b.col
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v := c.series[d.series]; len(v) > 0 {
				c.set(d.name, quantile(v, d.q), len(v))
			}
		}
	}
	for metric, series := range map[string]string{"ingest_mb_per_s": "import_ms", "gather_mb_per_s": "values_ms"} {
		if v := c.series[series]; len(v) > 0 {
			c.set(metric, b.sz.cubeMB()/median(v)*1e3, len(v))
		}
	}
	c.set("hpcwaas.rate_ok", b.rateOK(), b.sz.rounds)
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string
}

// bench is the state of one run.
type bench struct {
	options
	root  string    // scratch root, removed at exit
	rec   *recorder // nil while untraced
	round int       // the round being measured
	col   *collector
	ids   atomic.Int64
	// shardOps accumulates the coordinator's per-shard latency histogram
	// over the fused stages of all rounds.
	shardOps obs.HistogramSnapshot
}

func (b *bench) nextID() int64 { return b.ids.Add(1) }

func mkdir(dir string) error { return os.MkdirAll(dir, 0o755) }

// newBench puts all scratch of a run under one root inside the
// checkout (≈ 1.4 MB of model output per simulated day passes through
// it); cleanup removes it.
func newBench(opt options) (*bench, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	b := &bench{options: opt, col: newCollector()}
	b.root = filepath.Join(cwd, ".bench_tmp", fmt.Sprintf("run-%d", os.Getpid()))
	return b, nil
}

func (b *bench) cleanup() {
	os.RemoveAll(b.root)
	os.Remove(filepath.Dir(b.root)) // only if no other run is using it
}

// fixtures is everything set-up builds.
type fixtures struct {
	wf    *wfFixture
	query *queryFixture
	api   *apiFixture
}

func (f *fixtures) close() {
	if f.query != nil {
		f.query.close()
	}
	if f.api != nil {
		f.api.close()
	}
}

// setup builds every fixture under a fresh scratch directory: localizer
// training, the sequential reference run (which is also the attach-only
// model output), cube files, cluster and servers, imports, reference
// answers, the store and its frontends.
func (b *bench) setup() (*fixtures, error) {
	if err := os.RemoveAll(b.root); err != nil {
		return nil, err
	}
	if err := mkdir(b.root); err != nil {
		return nil, err
	}
	f := &fixtures{}
	var err error
	if f.wf, err = b.setupWF(); err == nil {
		if f.query, err = b.setupQuery(); err == nil {
			f.api, err = b.setupAPI()
		}
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// runStage measures one stage of the plan. wf-coupled beside a
// wf-attach primary only contributes wf_tail_s.
func (b *bench) runStage(f *fixtures, p stagePlan) {
	switch p.stage {
	case "wf-coupled":
		b.wfStage(f.wf, b.workload != "wf-attach", p)
	case "wf-attach":
		b.wfStage(f.wf, true, p)
	case "query-fused":
		b.fusedStage(f.query, clients, p.seconds, true)
	case "query-bulk":
		b.bulkStage(f.query, p.seconds)
	case "api-exec":
		b.apiStage(f.api, p.seconds)
	}
}

// result is what one run leaves behind, printed and written to -out.
type result struct {
	Workload  string           `json:"workload"`
	Trace     bool             `json:"trace"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Size      string           `json:"size"`
	Clients   int              `json:"clients"`
	Env       map[string]any   `json:"env"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]entry `json:"metrics"`
	// Samples are the raw values behind the medians: every value of a
	// series of at most rawSamplesMax (the per-run makespans, tails and
	// task accounting). Quantiles summarizes the longer per-operation
	// series as their 0 %, 5 %, … 100 % points.
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Quantiles map[string][]float64 `json:"quantiles,omitempty"`
	// Layers is the per-layer table of a traced run, Stages what part of
	// each stage's wall-clock no layer span covered. TraceWallS is the
	// wall-clock the root spans cover: the layers' self times and the
	// uncovered row sum to it.
	Layers     []layerRow `json:"layers,omitempty"`
	Stages     []stageRow `json:"stages,omitempty"`
	TraceWallS float64    `json:"trace_wall_s,omitempty"`
	TraceFile  string     `json:"trace_file,omitempty"`
	SetupS     []float64  `json:"setup_s_repeats"`
	Warnings   []string   `json:"warnings,omitempty"`
}

const rawSamplesMax = 256

// entry is one metric as printed: value, unit, sample count and, for a
// quantile of pooled samples, which quantile.
type entry struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	N          int     `json:"n,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// run executes one workload and returns its result.
func run(opt options) (*result, error) {
	stages, err := plan(opt.workload, opt.seconds)
	if err != nil {
		return nil, err
	}
	b, err := newBench(opt)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()

	// set-up, several times over: its median is an end-to-end metric so
	// that work moved from the timed part into set-up shows
	var fx *fixtures
	var setups []float64
	for i := 0; i < b.sz.setupRepeats; i++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		if fx, err = b.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fx.close()
	b.col.set("setup_s", median(setups), len(setups))

	if opt.trace {
		b.rec = &recorder{}
	}
	// The measuring time is spent in rounds, each a pass over every
	// stage: a disturbance of a few seconds then spoils a fraction of each
	// metric's samples, not all the samples of one metric.
	for b.round = 0; b.round < b.sz.rounds; b.round++ {
		for _, p := range stages {
			p.seconds /= float64(b.sz.rounds)
			b.runStage(fx, p)
		}
	}
	b.derive()
	res := &result{
		Workload: opt.workload, Trace: opt.trace, Seed: opt.seed, Seconds: opt.seconds,
		Size: opt.sz.name, Clients: clients, Env: environment(), SetupS: setups,
	}
	if opt.trace {
		replay := b.rec.begin("bench.replay", "replay", -1)
		err := b.replayWF(fx.wf, replay)
		if err == nil {
			err = b.replayQuery(fx.query, replay, b.col.get("query_per_s").V)
		}
		if err == nil {
			err = b.replayAPI(replay)
		}
		b.rec.end(replay)
		b.col.op(err, "staged replay")
		b.procMetrics()
		res.Layers, res.Stages, res.TraceWallS = b.rec.layerTable()
		b.col.set("trace.span_cost_pct", 100*float64(len(b.rec.spans))*spanCost()/res.TraceWallS, len(b.rec.spans))
		if err := mkdir(opt.outDir); err != nil {
			return nil, err
		}
		res.TraceFile = filepath.Join(opt.outDir, "trace-"+opt.workload+".json")
		if err := b.rec.writeChrome(res.TraceFile); err != nil {
			return nil, err
		}
	}

	res.Attempted, res.Failed, res.Failures = b.col.attempted, b.col.failed, b.col.failures
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Samples, res.Quantiles = map[string][]float64{}, map[string][]float64{}
	for name, v := range b.col.series {
		if len(v) <= rawSamplesMax {
			res.Samples[name] = v
			continue
		}
		for q := 0; q <= 20; q++ {
			res.Quantiles[name] = append(res.Quantiles[name], quantile(v, float64(q)/20))
		}
	}
	res.Metrics = map[string]entry{}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := b.col.get(d.name)
		if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v.V)
		}
		res.Metrics[d.name] = entry{Value: v.V, Unit: d.unit, N: v.N, Percentile: 100 * d.q}
		if k := beyond(v.N, d.q); d.q > 0.5 && d.q < 1 && k < 10 {
			res.Warnings = append(res.Warnings, fmt.Sprintf("%s: %d samples leave %d beyond p%g, fewer than ten", d.name, v.N, k, 100*d.q))
		}
	}
	return res, nil
}

// procMetrics reads what the process as a whole cost: CPU is shared by
// every layer on two cores, so these move with any of them.
func (b *bench) procMetrics() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		b.col.set("proc.cpu_user_s", float64(ru.Utime.Sec)+float64(ru.Utime.Usec)/1e6, 1)
		b.col.set("proc.cpu_sys_s", float64(ru.Stime.Sec)+float64(ru.Stime.Usec)/1e6, 1)
		b.col.set("proc.peak_rss_mb", float64(ru.Maxrss)/1024, 1)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.col.set("proc.alloc_mb", float64(m.TotalAlloc)/1e6, 1)
	b.col.set("proc.gc_pause_ms", float64(m.PauseTotalNs)/1e6, int(m.NumGC))
}

// environment records where the numbers were taken.
func environment() map[string]any {
	env := map[string]any{
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"commit": "unknown", "cpu": "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// report prints the human-readable tables to standard error, writes the
// result file, and prints the contract's JSON object as the last line of
// standard output.
func report(res *result, outDir string) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "workload %s seed %d size %s trace %v: %d attempted, %d failed\n",
		res.Workload, res.Seed, res.Size, res.Trace, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "  FAILED %s\n", f)
	}
	for _, w := range res.Warnings {
		fmt.Fprintf(os.Stderr, "  WARNING %s\n", w)
	}
	if len(res.Layers) > 0 {
		fmt.Fprintf(os.Stderr, "  %-12s %8s %10s %10s %7s\n", "layer", "spans", "busy s", "self s", "share")
		for _, l := range res.Layers {
			fmt.Fprintf(os.Stderr, "  %-12s %8d %10.3f %10.3f %6.1f%%\n", l.Layer, l.Spans, l.BusyS, l.SelfS, 100*l.SelfS/res.TraceWallS)
		}
		fmt.Fprintf(os.Stderr, "  %-12s %10s %12s %7s\n", "stage", "wall s", "uncovered s", "share")
		for _, st := range res.Stages {
			fmt.Fprintf(os.Stderr, "  %-12s %10.3f %12.3f %6.1f%%\n", st.Stage, st.WallS, st.UncoveredS, 100*st.UncoveredS/st.WallS)
		}
		fmt.Fprintf(os.Stderr, "  %.3f s traced wall-clock; trace in %s\n", res.TraceWallS, res.TraceFile)
	}
	if err := mkdir(outDir); err != nil {
		return err
	}
	mode := map[bool]string{false: "e2e", true: "layers"}[res.Trace]
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%s.json", res.Workload, res.Seed, mode)), data, 0o644); err != nil {
		return err
	}
	type unitValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]unitValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]unitValue{}}
	for n, m := range res.Metrics {
		line.Metrics[n] = unitValue{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 42, "seeds the ESM, the cube contents and the execution payloads (7 is reserved for confirming claims)")
		seconds  = flag.Float64("seconds", 18, "measuring time of the run, split over its stages")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, staged replay, Chrome trace in -out")
		quick    = flag.Bool("quick", false, "smoke-test sizes")
		outDir   = flag.String("out", ".bench_out", "directory for result and trace files")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare A B (files or directories)")
		spec     = flag.String("spec", filepath.Join("..", "BENCHMARK.json"), "BENCHMARK.json, for -compare")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A B")
			os.Exit(2)
		}
		ok, err := compareSets(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	opt := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, sz: benchSizes, outDir: *outDir}
	if *quick {
		opt.sz = quickSizes
	}
	res, err := run(opt)
	if err == nil {
		err = report(res, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
