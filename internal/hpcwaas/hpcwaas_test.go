package hpcwaas

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dls"
	"repro/internal/execstore"
	"repro/internal/imagebuilder"
	"repro/internal/tosca"
)

func demoEntry(name string, app AppFunc) Entry {
	if app == nil {
		app = func(params map[string]string) (map[string]string, error) {
			return map[string]string{"echo": params["msg"]}, nil
		}
	}
	return Entry{
		Name:        name,
		Version:     "1.0",
		Description: "test workflow",
		Topology:    tosca.ClimateTopology("zeus"),
		App:         app,
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(demoEntry("wf", nil)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup("wf"); !ok {
		t.Fatal("lookup failed")
	}
	if got := r.List(); len(got) != 1 || got[0] != "wf" {
		t.Fatalf("list = %v", got)
	}
	// replace = new version
	e := demoEntry("wf", nil)
	e.Version = "2.0"
	if err := r.Register(e); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Lookup("wf")
	if got.Version != "2.0" {
		t.Fatalf("version = %q", got.Version)
	}
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	e := demoEntry("", nil)
	if err := r.Register(e); err == nil {
		t.Fatal("anonymous entry accepted")
	}
	e = demoEntry("x", nil)
	e.App = nil
	if err := r.Register(e); err == nil {
		t.Fatal("app-less entry accepted")
	}
	e = demoEntry("x", nil)
	e.Topology = nil
	if err := r.Register(e); err == nil {
		t.Fatal("topology-less entry accepted")
	}
	e = demoEntry("x", nil)
	e.Topology = &tosca.Topology{Name: "bad", Nodes: []tosca.Node{{Name: "a", HostedOn: "ghost"}}}
	if err := r.Register(e); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

func newTestDeployer(t *testing.T) *Deployer {
	t.Helper()
	d := NewDeployer(nil, nil, imagebuilder.Platform{Arch: "x86_64", MPI: "openmpi4"})
	// provide the climatology pipeline the topology references
	src := t.TempDir()
	if err := os.WriteFile(filepath.Join(src, "clim.nc"), []byte("CLIM"), 0o644); err != nil {
		t.Fatal(err)
	}
	d.DLS.Catalog.Register(dls.Dataset{Name: "climatology", Root: src, Files: []string{"clim.nc"}})
	d.Pipelines["stage-in-climatology"] = dls.Pipeline{
		Name:  "stage-in-climatology",
		Steps: []dls.Step{{Kind: "stage_in", Dataset: "climatology", Dir: filepath.Join(t.TempDir(), "staged")}},
	}
	return d
}

func TestDeployWalksTopology(t *testing.T) {
	d := newTestDeployer(t)
	e := demoEntry("climate", nil)
	dep, err := d.Deploy(&e, "zeus")
	if err != nil {
		t.Fatal(err)
	}
	if dep.Status != StatusDeployed {
		t.Fatalf("status = %v, log: %v", dep.Status, dep.Log)
	}
	if len(dep.Images) != 1 || dep.Images[0].Tag != "climate-ml:x86_64" {
		t.Fatalf("images = %+v", dep.Images)
	}
	joined := strings.Join(dep.Log, "\n")
	for _, frag := range []string{"allocate hpc_cluster", "install esm_model", "pipeline stage-in-climatology complete", "publish extremes_workflow"} {
		if !strings.Contains(joined, frag) {
			t.Fatalf("log missing %q:\n%s", frag, joined)
		}
	}
	// cluster allocated before workflow published
	if strings.Index(joined, "allocate hpc_cluster") > strings.Index(joined, "publish extremes_workflow") {
		t.Fatal("lifecycle order violated")
	}
	if !d.ActiveFor("climate") {
		t.Fatal("deployment not active")
	}
}

func TestDeployFailsOnMissingPipeline(t *testing.T) {
	d := NewDeployer(nil, nil, imagebuilder.Platform{Arch: "x86_64"})
	e := demoEntry("climate", nil)
	dep, err := d.Deploy(&e, "zeus")
	if err == nil {
		t.Fatal("missing pipeline accepted")
	}
	if dep.Status != StatusFailed {
		t.Fatalf("status = %v", dep.Status)
	}
	if d.ActiveFor("climate") {
		t.Fatal("failed deployment counted active")
	}
}

func TestUndeploy(t *testing.T) {
	d := newTestDeployer(t)
	e := demoEntry("climate", nil)
	dep, err := d.Deploy(&e, "zeus")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Undeploy(dep.ID, e.Topology); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Get(dep.ID)
	if got.Status != StatusUndeployed {
		t.Fatalf("status = %v", got.Status)
	}
	if d.ActiveFor("climate") {
		t.Fatal("undeployed workflow still active")
	}
	if err := d.Undeploy("dep-999", e.Topology); err == nil {
		t.Fatal("unknown deployment undeployed")
	}
}

// testAPI is one Frontend over its own store, served over httptest,
// with the test deployer.
type testAPI struct {
	store *execstore.Store
	front *Frontend
	dep   *Deployer
	srv   *httptest.Server
}

// newAPI registers entries (default: an echoing "climate") and serves
// them from a Frontend whose executor has the given workers (0: none).
func newAPI(t *testing.T, cfg execstore.Config, workers int, entries ...Entry) *testAPI {
	t.Helper()
	if len(entries) == 0 {
		entries = []Entry{demoEntry("climate", nil)}
	}
	reg := NewRegistry()
	for _, e := range entries {
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	a := &testAPI{store: openTestStore(t, cfg), dep: newTestDeployer(t)}
	a.front = newTestFrontend(t, FrontendConfig{ID: "api-0", Store: a.store, Registry: reg, Deployer: a.dep, Workers: workers})
	a.srv = httptest.NewServer(a.front.Handler())
	t.Cleanup(a.srv.Close)
	return a
}

// submit POSTs an execution and returns its ID, failing unless 202.
func (a *testAPI) submit(t *testing.T, workflow string, params map[string]string) string {
	t.Helper()
	code, ex := restCall(t, a.srv, "POST", "/api/executions", map[string]any{"workflow": workflow, "params": params})
	if code != http.StatusAccepted {
		t.Fatalf("submit %s: %d %v", workflow, code, ex)
	}
	return ex["id"].(string)
}

// waitIdle blocks until the store has no pending or leased task.
func waitIdle(t *testing.T, s *execstore.Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("store never went idle: %v (stats %+v)", err, s.Stats())
	}
}

// list GETs /api/executions with an optional query string.
func (a *testAPI) list(t *testing.T, query string) []execution {
	t.Helper()
	resp, err := a.srv.Client().Get(a.srv.URL + "/api/executions" + query)
	if err != nil {
		t.Fatal(err)
	}
	return decodeBody[[]execution](t, resp)
}

func TestExecuteLifecycle(t *testing.T) {
	api := newAPI(t, execstore.Config{}, 1)
	id := api.submit(t, "climate", map[string]string{"msg": "hi"})
	if id != "task-1" {
		t.Fatalf("first execution id = %s, want task-1", id)
	}
	waitIdle(t, api.store)
	code, got := restCall(t, api.srv, "GET", "/api/executions/"+id, nil)
	if code != http.StatusOK || got["status"] != "DONE" || got["results"].(map[string]any)["echo"] != "hi" {
		t.Fatalf("execution = %d %v", code, got)
	}
	if code, _ := restCall(t, api.srv, "POST", "/api/executions", map[string]any{"workflow": "ghost"}); code != http.StatusNotFound {
		t.Fatalf("unknown workflow code = %d, want 404", code)
	}
}

func TestExecuteFailuresCaptured(t *testing.T) {
	api := newAPI(t, execstore.Config{}, 1,
		demoEntry("bad", func(map[string]string) (map[string]string, error) {
			return nil, errors.New("app exploded")
		}),
		demoEntry("panics", func(map[string]string) (map[string]string, error) {
			panic("kaboom")
		}))
	for name, want := range map[string]string{"bad": "app exploded", "panics": "panicked: kaboom"} {
		id := api.submit(t, name, nil)
		waitIdle(t, api.store)
		_, got := restCall(t, api.srv, "GET", "/api/executions/"+id, nil)
		if got["status"] != "FAILED" || !strings.Contains(fmt.Sprint(got["error"]), want) {
			t.Fatalf("%s: execution = %v, want FAILED with %q", name, got, want)
		}
	}
}

// --- REST API ------------------------------------------------------------

func restCall(t *testing.T, srv *httptest.Server, method, path string, body any) (int, map[string]any) {
	t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(data)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, srv.URL+path, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func TestRESTEndToEnd(t *testing.T) {
	api := newAPI(t, execstore.Config{}, 1)
	srv := api.srv

	// list
	resp, err := srv.Client().Get(srv.URL + "/api/workflows")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[[]map[string]any](t, resp)
	if len(list) != 1 || list[0]["name"] != "climate" {
		t.Fatalf("list = %v", list)
	}

	// detail
	code, detail := restCall(t, srv, "GET", "/api/workflows/climate", nil)
	if code != http.StatusOK || detail["topology"] == nil {
		t.Fatalf("detail = %d %v", code, detail)
	}
	if code, _ := restCall(t, srv, "GET", "/api/workflows/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("ghost detail code = %d", code)
	}

	// deploy
	code, dep := restCall(t, srv, "POST", "/api/workflows/climate/deploy", map[string]any{"target": "zeus"})
	if code != http.StatusCreated || dep["Status"] != "DEPLOYED" {
		t.Fatalf("deploy = %d %v", code, dep)
	}
	depID := dep["ID"].(string)
	if !api.dep.ActiveFor("climate") {
		t.Fatal("deploy route did not go through the configured deployer")
	}

	// deployment status
	code, got := restCall(t, srv, "GET", "/api/deployments/"+depID, nil)
	if code != http.StatusOK || got["Workflow"] != "climate" {
		t.Fatalf("deployment get = %d %v", code, got)
	}

	// execute, then poll until done
	exID := api.submit(t, "climate", map[string]string{"msg": "via REST"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, got = restCall(t, srv, "GET", "/api/executions/"+exID, nil)
		if code != http.StatusOK {
			t.Fatalf("poll code = %d", code)
		}
		if got["status"] == "DONE" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("execution stuck: %v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if results := got["results"].(map[string]any); results["echo"] != "via REST" {
		t.Fatalf("results = %v", results)
	}

	// undeploy
	code, got = restCall(t, srv, "POST", "/api/deployments/"+depID+"/undeploy", nil)
	if code != http.StatusOK || got["Status"] != "UNDEPLOYED" {
		t.Fatalf("undeploy = %d %v", code, got)
	}
	if api.dep.ActiveFor("climate") {
		t.Fatal("undeployed workflow still active")
	}
}

func TestRESTValidation(t *testing.T) {
	srv := newAPI(t, execstore.Config{}, 0).srv

	if code, _ := restCall(t, srv, "GET", "/api/executions/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("ghost execution code = %d", code)
	}
	if code, _ := restCall(t, srv, "GET", "/api/deployments/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("ghost deployment code = %d", code)
	}
	if code, _ := restCall(t, srv, "POST", "/api/deployments/ghost/undeploy", nil); code != http.StatusNotFound {
		t.Fatalf("ghost undeploy code = %d", code)
	}
	if code, _ := restCall(t, srv, "POST", "/api/workflows/ghost/deploy", map[string]any{}); code != http.StatusNotFound {
		t.Fatalf("ghost deploy code = %d", code)
	}
	if code, _ := restCall(t, srv, "POST", "/api/executions", map[string]any{"workflow": "ghost"}); code != http.StatusNotFound {
		t.Fatalf("ghost execute code = %d", code)
	}
	// malformed body
	req, _ := http.NewRequest("POST", srv.URL+"/api/executions", strings.NewReader("{broken"))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body code = %d", resp.StatusCode)
	}
}

func TestHealthAndExecutionList(t *testing.T) {
	api := newAPI(t, execstore.Config{}, 1)
	code, health := restCall(t, api.srv, "GET", "/api/health", nil)
	if code != http.StatusOK || health["status"] != "ok" || health["workflows"].(float64) != 1 ||
		health["replica"] != "api-0" || health["executor"] != true {
		t.Fatalf("health = %d %v", code, health)
	}
	for i := 0; i < 3; i++ {
		api.submit(t, "climate", map[string]string{"msg": "x"})
	}
	waitIdle(t, api.store)
	list := api.list(t, "")
	if len(list) != 3 || list[0].ID != "task-1" {
		t.Fatalf("executions = %+v", list)
	}
	for _, ex := range list {
		if ex.Status != ExecDone {
			t.Fatalf("execution %s status %s", ex.ID, ex.Status)
		}
	}
}

func TestTokenAuth(t *testing.T) {
	api := newAPI(t, execstore.Config{}, 0)
	if err := api.front.AuthorizeToken("", "x"); err == nil {
		t.Fatal("empty token accepted")
	}
	if err := api.front.AuthorizeToken("secret-1", "alice"); err != nil {
		t.Fatal(err)
	}
	srv := api.srv

	// no token → 401
	resp, err := srv.Client().Get(srv.URL + "/api/workflows")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated code = %d", resp.StatusCode)
	}
	// wrong token → 401
	req, _ := http.NewRequest("GET", srv.URL+"/api/workflows", nil)
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad-token code = %d", resp.StatusCode)
	}
	// right token → 200, and the token's principal is the tenant
	req, _ = http.NewRequest("POST", srv.URL+"/api/executions", strings.NewReader(`{"workflow":"climate"}`))
	req.Header.Set("Authorization", "Bearer secret-1")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("authenticated code = %d", resp.StatusCode)
	}
	if ex := decodeBody[execution](t, resp); ex.Principal != "alice" {
		t.Fatalf("principal = %q, want alice", ex.Principal)
	}
}

func TestNoTokensMeansOpenAPI(t *testing.T) {
	api := newAPI(t, execstore.Config{}, 0)
	resp, err := api.srv.Client().Get(api.srv.URL + "/api/workflows")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open-mode code = %d", resp.StatusCode)
	}
	api.submit(t, "climate", nil)
	if v, _ := api.store.Get("task-1"); v.Tenant != "anonymous" {
		t.Fatalf("tenant = %q, want anonymous", v.Tenant)
	}
}

func TestDeployerCacheAcrossDeployments(t *testing.T) {
	d := newTestDeployer(t)
	e := demoEntry("climate", nil)
	if _, err := d.Deploy(&e, "zeus"); err != nil {
		t.Fatal(err)
	}
	dep2, err := d.Deploy(&e, "marenostrum")
	if err != nil {
		t.Fatal(err)
	}
	if !dep2.Images[0].Cached {
		t.Fatal("second deployment rebuilt the image")
	}
	if d.Builder.Builds() != 1 {
		t.Fatalf("builds = %d", d.Builder.Builds())
	}
}

func ExampleFrontend() {
	// Developers register a workflow; users run it over REST through a
	// frontend whose embedded executor leases it from the store.
	reg := NewRegistry()
	_ = reg.Register(Entry{
		Name:     "hello",
		Topology: tosca.ClimateTopology("zeus"),
		App: func(p map[string]string) (map[string]string, error) {
			return map[string]string{"greeting": "hello " + p["who"]}, nil
		},
	})
	store, _ := execstore.Open(execstore.Config{})
	defer store.Close()
	f, _ := NewFrontend(FrontendConfig{ID: "api-0", Store: store, Registry: reg, Workers: 1})
	defer f.KillExecutor()
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	resp, _ := http.Post(srv.URL+"/api/executions", "application/json",
		strings.NewReader(`{"workflow":"hello","params":{"who":"climate"}}`))
	var ex execution
	_ = json.NewDecoder(resp.Body).Decode(&ex)
	resp.Body.Close()
	_ = store.WaitIdle(context.Background())
	resp, _ = http.Get(srv.URL + "/api/executions/" + ex.ID)
	_ = json.NewDecoder(resp.Body).Decode(&ex)
	resp.Body.Close()
	fmt.Println(ex.ID, ex.Status, ex.Results["greeting"])
	// Output: task-1 DONE hello climate
}
