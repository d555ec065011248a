// Hpcwaas walks the full HPC-Workflows-as-a-Service lifecycle of the
// paper's Figure 1 against a live REST service — the same control plane
// hpcwaas-server runs, one hpcwaas.Frontend over an execution store
// (internal/execstore): the developer registers the climate-extremes
// workflow with its TOSCA topology; the deployer (Yorc role) builds
// container images and stages data; the final user then drives
// everything over plain HTTP: a submission past the user's quota
// bounces with 429 + Retry-After, accepted ones are observable through
// QUEUED → RUNNING → DONE, one is cancelled mid-flight, GET /api/store
// exposes depth and leases, and the service drains cleanly at the end.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dls"
	"repro/internal/esm"
	"repro/internal/execstore"
	"repro/internal/grid"
	"repro/internal/hpcwaas"
	"repro/internal/imagebuilder"
	"repro/internal/tosca"
)

func main() {
	log.SetFlags(0)
	workDir, err := os.MkdirTemp("", "hpcwaas-")
	if err != nil {
		log.Fatal(err)
	}

	// --- developer side: register the workflow --------------------------
	registry := hpcwaas.NewRegistry()
	entry := hpcwaas.Entry{
		Name:        "climate-extremes",
		Version:     "1.0",
		Description: "extreme events analysis on ESM projection data",
		Topology:    tosca.ClimateTopology("zeus"),
		App:         climateApp(workDir),
	}
	if err := registry.Register(entry); err != nil {
		log.Fatal(err)
	}
	fmt.Println("registered workflow 'climate-extremes' (TOSCA topology attached)")

	// --- site services: image builder + data logistics ------------------
	deployer := hpcwaas.NewDeployer(nil, nil, imagebuilder.Platform{Arch: "x86_64", MPI: "openmpi4"})
	climSrc := filepath.Join(workDir, "catalog")
	os.MkdirAll(climSrc, 0o755)
	os.WriteFile(filepath.Join(climSrc, "climatology.nc"), []byte("20y baseline"), 0o644)
	deployer.DLS.Catalog.Register(dls.Dataset{Name: "climatology", Root: climSrc, Files: []string{"climatology.nc"}})
	deployer.Pipelines["stage-in-climatology"] = dls.Pipeline{
		Name:  "stage-in-climatology",
		Steps: []dls.Step{{Kind: "stage_in", Dataset: "climatology", Dir: filepath.Join(workDir, "staged")}},
	}

	// A deliberately tight quota so admission control is visible: one
	// worker, at most three live executions per user.
	store, err := execstore.Open(execstore.Config{MaxPending: 8, PerTenantLimit: 3})
	if err != nil {
		log.Fatal(err)
	}
	front, err := hpcwaas.NewFrontend(hpcwaas.FrontendConfig{
		ID: "api-0", Store: store, Registry: registry, Deployer: deployer, Workers: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	server := httptest.NewServer(front.Handler())
	defer server.Close()
	fmt.Printf("HPCWaaS execution API listening at %s (1 worker, quota 3 per user)\n\n", server.URL)

	// --- user side: pure REST from here on -------------------------------
	var workflows []map[string]any
	getJSON(server.URL+"/api/workflows", &workflows)
	fmt.Printf("GET /api/workflows -> %d workflow(s): %v\n", len(workflows), workflows[0]["name"])

	var dep map[string]any
	postJSON(server.URL+"/api/workflows/climate-extremes/deploy",
		map[string]any{"target": "zeus"}, &dep)
	fmt.Printf("POST .../deploy -> %s on %s (%s)\n\n", dep["ID"], dep["Target"], dep["Status"])

	// Submit four executions back to back. The first occupies the lone
	// worker, two wait their turn, and the fourth is over the quota.
	params := map[string]string{"years": "1", "days_per_year": "12", "seed": "42"}
	var ids []string
	for i := 1; i <= 4; i++ {
		code, headers, body := post(server.URL+"/api/executions",
			map[string]any{"workflow": "climate-extremes", "params": params})
		var ex map[string]any
		json.Unmarshal(body, &ex)
		if code == http.StatusAccepted {
			ids = append(ids, ex["id"].(string))
			fmt.Printf("POST /api/executions #%d -> 202 %s (%s)\n", i, ex["id"], ex["status"])
		} else {
			fmt.Printf("POST /api/executions #%d -> %d %v (Retry-After: %ss)\n",
				i, code, ex["error"], headers.Get("Retry-After"))
		}
	}

	// The store endpoint shows where everything sits.
	var stats map[string]any
	getJSON(server.URL+"/api/store", &stats)
	fmt.Printf("\nGET /api/store -> pending %v, leased %v, shed %v\n",
		stats["pending"], stats["leased"], stats["shed"])

	// Cancel the last accepted execution while it still waits its turn.
	last := ids[len(ids)-1]
	code, _, body := do("DELETE", server.URL+"/api/executions/"+last, nil)
	var cancelled map[string]any
	json.Unmarshal(body, &cancelled)
	fmt.Printf("DELETE /api/executions/%s -> %d (%s)\n\n", last, code, cancelled["status"])

	// Poll the second execution through its lifecycle.
	watch := ids[1]
	lastStatus := ""
	var ex map[string]any
	for {
		getJSON(server.URL+"/api/executions/"+watch, &ex)
		if st := ex["status"].(string); st != lastStatus {
			fmt.Printf("GET /api/executions/%s -> %s\n", watch, st)
			lastStatus = st
		}
		if lastStatus == "DONE" || lastStatus == "FAILED" || lastStatus == "CANCELED" {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lastStatus != "DONE" {
		log.Fatalf("execution failed: %v", ex["error"])
	}
	results := ex["results"].(map[string]any)
	fmt.Printf("results: %v years processed, %v files, heat-wave mean %v\n\n",
		results["years_processed"], results["files_produced"], results["hw_mean_year_1"])

	// Drain: intake stops, the backlog finishes, the executor exits.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	store.Drain()
	if err := store.WaitIdle(ctx); err != nil {
		log.Fatal(err)
	}
	if err := front.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	var final []map[string]any
	getJSON(server.URL+"/api/executions", &final)
	fmt.Println("drained; final execution states:")
	for _, e := range final {
		fmt.Printf("  %-8s %s\n", e["id"], e["status"])
	}
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server shut down cleanly")
}

// climateApp adapts the core workflow as an HPCWaaS application: input
// parameters arrive as strings from the REST call.
func climateApp(workDir string) hpcwaas.AppFunc {
	return func(params map[string]string) (map[string]string, error) {
		years := atoiDefault(params["years"], 1)
		days := atoiDefault(params["days_per_year"], 12)
		seed := int64(atoiDefault(params["seed"], 1))
		outDir, err := os.MkdirTemp(workDir, "run-")
		if err != nil {
			return nil, err
		}
		res, err := core.Run(core.Config{
			Grid:        grid.Grid{NLat: 24, NLon: 48},
			Years:       years,
			DaysPerYear: days,
			Seed:        seed,
			OutputDir:   outDir,
			Events: &esm.EventConfig{
				HeatWavesPerYear: 1, ColdSpellsPerYear: 1, CyclonesPerYear: 1,
				WaveAmplitudeK: 9, WaveMinDays: 6, WaveMaxDays: 7,
			},
		})
		if err != nil {
			return nil, err
		}
		return map[string]string{
			"years_processed":  strconv.Itoa(len(res.Years)),
			"files_produced":   strconv.Itoa(res.FilesProduced),
			"final_map":        res.FinalMapPath,
			"hw_mean_year_1":   fmt.Sprintf("%.4f", res.Years[0].HWNumberMean),
			"tracker_tracks":   strconv.Itoa(res.Years[0].TrackerTracks),
			"output_directory": outDir,
		}, nil
	}
}

func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return n
}

// do issues a request and returns status, headers and raw body.
func do(method, url string, reqBody any) (int, http.Header, []byte) {
	var rdr *bytes.Reader
	if reqBody != nil {
		data, err := json.Marshal(reqBody)
		if err != nil {
			log.Fatal(err)
		}
		rdr = bytes.NewReader(data)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}

func post(url string, body any) (int, http.Header, []byte) {
	return do("POST", url, body)
}

func getJSON(url string, v any) {
	code, _, body := do("GET", url, nil)
	if code >= 400 {
		log.Fatalf("GET %s -> %d: %s", url, code, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		log.Fatal(err)
	}
}

func postJSON(url string, body, v any) {
	code, _, data := do("POST", url, body)
	if code >= 400 {
		log.Fatalf("POST %s -> %d: %s", url, code, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		log.Fatal(err)
	}
}
