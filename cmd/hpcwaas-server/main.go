// Command hpcwaas-server runs the HPCWaaS REST API with the
// climate-extremes workflow pre-registered, so the whole case study is
// drivable with curl:
//
//	hpcwaas-server -addr 127.0.0.1:8700 -workers 4 -queue-depth 64 &
//	curl localhost:8700/api/workflows
//	curl -X POST localhost:8700/api/workflows/climate-extremes/deploy -d '{"target":"zeus"}'
//	curl localhost:8700/api/deployments/dep-1
//	curl -X POST localhost:8700/api/executions \
//	     -d '{"workflow":"climate-extremes","params":{"years":"1","days_per_year":"12"}}'
//	curl localhost:8700/api/executions/task-1
//	curl localhost:8700/api/store
//	curl -X DELETE localhost:8700/api/executions/task-1
//	curl -X POST localhost:8700/api/deployments/dep-1/undeploy
//
// Every replica count runs the same control plane (DESIGN.md §13): one
// execution store (internal/execstore) under -replicas stateless
// hpcwaas.Frontends, each embedding an executor of -workers. One
// replica listens on -addr as given; with more, replica i listens on
// the -addr port + i (port 0 gives each its own free port), and any
// replica answers for any execution. Admission answers 429 (tenant
// quota or rate) or 503 (queue depth, backlog cost, draining) with
// Retry-After, -journal keeps pending work across restarts, and
// SIGINT/SIGTERM stop intake, let the backlog finish within
// -drain-timeout and exit.
//
// GET /metrics serves the Prometheus text exposition of the whole
// stack — store depth, leases and latency histograms, per-task-kind
// runtime counters, datacube operator timings, federation
// transfer/breaker state. -debug-addr additionally serves
// net/http/pprof on a separate loopback listener for live profiling.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/compss"
	"repro/internal/core"
	"repro/internal/datacube"
	"repro/internal/dls"
	"repro/internal/esm"
	"repro/internal/execstore"
	"repro/internal/grid"
	"repro/internal/hpcwaas"
	"repro/internal/imagebuilder"
	"repro/internal/multisite"
	"repro/internal/obs"
	"repro/internal/tosca"
)

func main() {
	log.SetFlags(0)
	var (
		addr       = flag.String("addr", "127.0.0.1:8700", "listen address; replica i listens on its port + i")
		work       = flag.String("work", "", "working directory (default: temp)")
		workers    = flag.Int("workers", 4, "executor workers per replica")
		queueDepth = flag.Int("queue-depth", 256, "max pending executions before 503")
		quota      = flag.Int("quota", 0, "per-principal live-execution quota (0 = off)")
		rate       = flag.Float64("rate", 0, "per-principal executions/sec token-bucket rate (0 = off)")
		retention  = flag.Int("retention", 1024, "completed execution records to retain")
		journal    = flag.String("journal", "", "journal file for crash recovery (default: off)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "max wait for pending and running executions on shutdown")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; default: off)")
		replicas   = flag.Int("replicas", 1, "API replicas over the one execution store")
		leaseTTL   = flag.Duration("lease-ttl", 3*time.Second, "work-lease TTL; a dead replica's tasks are reclaimed after this")
		maxWait    = flag.Duration("max-wait", 0, "shed submissions whose estimated queue wait exceeds this (0 = off)")
	)
	flag.Parse()

	workDir := *work
	if workDir == "" {
		var err error
		workDir, err = os.MkdirTemp("", "hpcwaas-server-")
		if err != nil {
			log.Fatal(err)
		}
	}

	// One registry carries the whole stack's instruments: the store's
	// execstore_* families plus the workflow-runtime, datacube,
	// federation and DLS ones, primed here so GET /metrics shows the
	// complete surface from the first scrape.
	metrics := obs.NewRegistry()
	compss.PrimeMetrics(metrics)
	datacube.PrimeMetrics(metrics)
	multisite.PrimeMetrics(metrics)
	dls.PrimeMetrics(metrics)

	if *debugAddr != "" {
		// The pprof mux is http.DefaultServeMux (registered by the
		// net/http/pprof import); keep it on its own listener so
		// profiling endpoints never share the API's address.
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	srv, err := start(*addr, *replicas, *workers, workDir, execstore.Config{
		MaxPending:       *queueDepth,
		PerTenantLimit:   *quota,
		RatePerSec:       *rate,
		MaxEstimatedWait: *maxWait,
		LeaseTTL:         *leaseTTL,
		Retention:        *retention,
		JournalPath:      *journal,
		Metrics:          metrics,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, u := range srv.urls {
		fmt.Printf("HPCWaaS replica %d on %s (%d workers, lease TTL %s)\n", i, u, *workers, *leaseTTL)
	}
	fmt.Printf("workdir %s, queue depth %d\n", workDir, *queueDepth)

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-srv.errs:
		log.Fatal(err)
	case <-sigCtx.Done():
	}
	log.Printf("signal received: draining %d replica(s) (up to %s)", *replicas, *drainWait)
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	log.Printf("shutdown complete")
}

// server is the running control plane: one store under N frontends,
// each on its own listener.
type server struct {
	store  *execstore.Store
	fronts []*hpcwaas.Frontend
	https  []*http.Server
	urls   []string
	errs   chan error
}

// start opens the store, registers the climate-extremes workflow and
// the deployer it needs, and serves n frontends. Their instruments go
// to scfg.Metrics.
func start(addr string, n, workers int, workDir string, scfg execstore.Config) (*server, error) {
	registry := hpcwaas.NewRegistry()
	if err := registry.Register(hpcwaas.Entry{
		Name:        "climate-extremes",
		Version:     "1.0",
		Description: "extreme events analysis on ESM projection data (paper case study)",
		Topology:    tosca.ClimateTopology("zeus"),
		App:         app(workDir, scfg.Metrics),
	}); err != nil {
		return nil, err
	}
	deployer, err := newDeployer(workDir)
	if err != nil {
		return nil, err
	}
	lns, err := listen(addr, n)
	if err != nil {
		return nil, err
	}
	store, err := execstore.Open(scfg)
	if err != nil {
		for _, ln := range lns {
			ln.Close()
		}
		return nil, err
	}
	s := &server{store: store, errs: make(chan error, n)}
	for i, ln := range lns {
		f, err := hpcwaas.NewFrontend(hpcwaas.FrontendConfig{
			ID:       fmt.Sprintf("replica-%d", i),
			Store:    store,
			Registry: registry,
			Deployer: deployer,
			Workers:  workers,
			Metrics:  scfg.Metrics,
		})
		if err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			s.shutdown(context.Background())
			return nil, err
		}
		h := &http.Server{Handler: f.Handler()}
		s.fronts = append(s.fronts, f)
		s.https = append(s.https, h)
		s.urls = append(s.urls, "http://"+ln.Addr().String())
		go func() {
			if err := h.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				s.errs <- err
			}
		}()
	}
	return s, nil
}

// listen opens one listener per replica: addr itself for one, the
// port + i for replica i of several (every replica on a free port
// when the port is 0).
func listen(addr string, n int) ([]net.Listener, error) {
	addrs := []string{addr}
	if n > 1 {
		host, portStr, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, fmt.Errorf("-addr %q: %w", addr, err)
		}
		base, err := strconv.Atoi(portStr)
		if err != nil {
			return nil, fmt.Errorf("-addr %q: %d replicas need a numeric port", addr, n)
		}
		addrs = addrs[:0]
		for i := 0; i < n; i++ {
			port := base
			if base != 0 {
				port += i
			}
			addrs = append(addrs, net.JoinHostPort(host, strconv.Itoa(port)))
		}
	}
	var lns []net.Listener
	for _, a := range addrs {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

// shutdown stops the listeners and intake, waits for the backlog to
// finish, then stops the executors and closes the store. If ctx
// expires first the executors are killed rather than drained: they
// report nothing, so with -journal the unfinished executions stay live
// and run again after a restart.
func (s *server) shutdown(ctx context.Context) error {
	for _, h := range s.https {
		if err := h.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	}
	s.store.Drain()
	err := s.store.WaitIdle(ctx)
	for _, f := range s.fronts {
		if err != nil {
			f.KillExecutor()
		} else if derr := f.Drain(ctx); derr != nil {
			err = derr
		}
	}
	if cerr := s.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// newDeployer builds the Yorc-role deployer with the climatology
// dataset the topology's stage-in pipeline references.
func newDeployer(workDir string) (*hpcwaas.Deployer, error) {
	deployer := hpcwaas.NewDeployer(nil, nil, imagebuilder.Platform{Arch: "x86_64", MPI: "openmpi4"})
	catalogDir := filepath.Join(workDir, "catalog")
	if err := os.MkdirAll(catalogDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(catalogDir, "climatology.nc"), []byte("20y baseline"), 0o644); err != nil {
		return nil, err
	}
	deployer.DLS.Catalog.Register(dls.Dataset{Name: "climatology", Root: catalogDir, Files: []string{"climatology.nc"}})
	deployer.Pipelines["stage-in-climatology"] = dls.Pipeline{
		Name:  "stage-in-climatology",
		Steps: []dls.Step{{Kind: "stage_in", Dataset: "climatology", Dir: filepath.Join(workDir, "staged")}},
	}
	return deployer, nil
}

func app(workDir string, metrics *obs.Registry) hpcwaas.AppFunc {
	return func(params map[string]string) (map[string]string, error) {
		atoi := func(s string, def int) int {
			if n, err := strconv.Atoi(s); err == nil {
				return n
			}
			return def
		}
		outDir, err := os.MkdirTemp(workDir, "run-")
		if err != nil {
			return nil, err
		}
		res, err := core.Run(core.Config{
			Grid:        grid.Grid{NLat: 24, NLon: 48},
			Years:       atoi(params["years"], 1),
			DaysPerYear: atoi(params["days_per_year"], 12),
			Seed:        int64(atoi(params["seed"], 1)),
			OutputDir:   outDir,
			Metrics:     metrics,
			Events: &esm.EventConfig{
				HeatWavesPerYear: 1, ColdSpellsPerYear: 1, CyclonesPerYear: 1,
				WaveAmplitudeK: 9, WaveMinDays: 6, WaveMaxDays: 7,
			},
		})
		if err != nil {
			return nil, err
		}
		out := map[string]string{
			"years_processed": strconv.Itoa(len(res.Years)),
			"files_produced":  strconv.Itoa(res.FilesProduced),
			"final_map":       res.FinalMapPath,
			"output_dir":      outDir,
		}
		for _, yr := range res.Years {
			out[fmt.Sprintf("hw_mean_%d", yr.Year)] = fmt.Sprintf("%.4f", yr.HWNumberMean)
		}
		return out, nil
	}
}
