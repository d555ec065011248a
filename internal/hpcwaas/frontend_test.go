package hpcwaas

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/execstore"
)

func openTestStore(t *testing.T, cfg execstore.Config) *execstore.Store {
	t.Helper()
	s, err := execstore.Open(cfg)
	if err != nil {
		t.Fatalf("execstore.Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func newTestFrontend(t *testing.T, cfg FrontendConfig) *Frontend {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
		if err := cfg.Registry.Register(demoEntry("wf", nil)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := NewFrontend(cfg)
	if err != nil {
		t.Fatalf("NewFrontend: %v", err)
	}
	t.Cleanup(func() { f.KillExecutor() })
	return f
}

func postExecution(t *testing.T, url, workflow string, params map[string]string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"workflow": workflow, "params": params})
	resp, err := http.Post(url+"/api/executions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

func TestFrontendShedStatusMapping(t *testing.T) {
	t.Run("tenant-quota is 429", func(t *testing.T) {
		store := openTestStore(t, execstore.Config{PerTenantLimit: 1})
		f := newTestFrontend(t, FrontendConfig{ID: "api-1", Store: store})
		srv := httptest.NewServer(f.Handler())
		defer srv.Close()

		resp := postExecution(t, srv.URL, "wf", nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first POST: %d", resp.StatusCode)
		}
		resp.Body.Close()

		resp = postExecution(t, srv.URL, "wf", nil)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("quota shed: %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("missing Retry-After header")
		}
		body := decodeBody[map[string]any](t, resp)
		if body["shed_reason"] != "tenant-quota" {
			t.Fatalf("shed_reason = %v", body["shed_reason"])
		}
		if ms, ok := body["retry_after_ms"].(float64); !ok || ms <= 0 {
			t.Fatalf("retry_after_ms = %v", body["retry_after_ms"])
		}
	})

	t.Run("depth is 503", func(t *testing.T) {
		store := openTestStore(t, execstore.Config{MaxPending: 1})
		f := newTestFrontend(t, FrontendConfig{ID: "api-1", Store: store})
		srv := httptest.NewServer(f.Handler())
		defer srv.Close()

		resp := postExecution(t, srv.URL, "wf", nil)
		resp.Body.Close()
		resp = postExecution(t, srv.URL, "wf", nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("depth shed: %d, want 503", resp.StatusCode)
		}
		body := decodeBody[map[string]any](t, resp)
		if body["shed_reason"] != "depth" {
			t.Fatalf("shed_reason = %v", body["shed_reason"])
		}
	})

	t.Run("backlog-cost is 503 with estimate", func(t *testing.T) {
		store := openTestStore(t, execstore.Config{
			DefaultCostSeconds: 100,
			MaxEstimatedWait:   time.Second,
		})
		f := newTestFrontend(t, FrontendConfig{ID: "api-1", Store: store})
		srv := httptest.NewServer(f.Handler())
		defer srv.Close()

		resp := postExecution(t, srv.URL, "wf", nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("cost shed: %d, want 503", resp.StatusCode)
		}
		body := decodeBody[map[string]any](t, resp)
		if body["shed_reason"] != "backlog-cost" {
			t.Fatalf("shed_reason = %v", body["shed_reason"])
		}
		if ms, ok := body["estimated_wait_ms"].(float64); !ok || ms < 1000 {
			t.Fatalf("estimated_wait_ms = %v", body["estimated_wait_ms"])
		}
	})

	t.Run("draining is 503", func(t *testing.T) {
		store := openTestStore(t, execstore.Config{})
		f := newTestFrontend(t, FrontendConfig{ID: "api-1", Store: store})
		srv := httptest.NewServer(f.Handler())
		defer srv.Close()
		store.Drain()
		resp := postExecution(t, srv.URL, "wf", nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining shed: %d, want 503", resp.StatusCode)
		}
		body := decodeBody[map[string]any](t, resp)
		if body["shed_reason"] != "draining" {
			t.Fatalf("shed_reason = %v", body["shed_reason"])
		}
	})
}

// TestFrontendRetryAfterIsSufficient is the accuracy contract: the
// retry_after_ms a rate-shed response carries comes from the token
// bucket's actual next-token time, so a client that sleeps exactly that
// long (not a millisecond more) must be admitted on its next attempt.
func TestFrontendRetryAfterIsSufficient(t *testing.T) {
	store := openTestStore(t, execstore.Config{RatePerSec: 4, Burst: 1})
	f := newTestFrontend(t, FrontendConfig{ID: "api-1", Store: store})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	resp := postExecution(t, srv.URL, "wf", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST: %d", resp.StatusCode)
	}
	resp.Body.Close()

	for i := 0; i < 3; i++ {
		resp = postExecution(t, srv.URL, "wf", nil)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("attempt %d: %d, want 429", i, resp.StatusCode)
		}
		body := decodeBody[map[string]any](t, resp)
		ms, ok := body["retry_after_ms"].(float64)
		if !ok || ms <= 0 || ms > 260 {
			t.Fatalf("retry_after_ms = %v, want (0, 260]", body["retry_after_ms"])
		}
		time.Sleep(time.Duration(ms) * time.Millisecond) // exactly the hint
		resp = postExecution(t, srv.URL, "wf", nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("attempt %d after sleeping exactly retry_after_ms: %d, want 202", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestFrontendReplicaSetHTTPSoak drives concurrent HTTP clients against
// three API replicas over one store while a chaos loop kills and
// replaces executor replicas. Any frontend must answer for any
// execution, and every submission must complete exactly once.
func TestFrontendReplicaSetHTTPSoak(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(demoEntry("wf", func(params map[string]string) (map[string]string, error) {
		time.Sleep(2 * time.Millisecond)
		return map[string]string{"echo": params["msg"]}, nil
	})); err != nil {
		t.Fatal(err)
	}
	store := openTestStore(t, execstore.Config{
		MaxPending: 1 << 12,
		LeaseTTL:   250 * time.Millisecond,
		SweepEvery: 20 * time.Millisecond,
	})

	const nFront = 3
	fronts := make([]*Frontend, nFront)
	servers := make([]*httptest.Server, nFront)
	for i := range fronts {
		fronts[i] = newTestFrontend(t, FrontendConfig{
			ID: fmt.Sprintf("api-%d", i), Store: store, Registry: reg, Workers: 2,
		})
		servers[i] = httptest.NewServer(fronts[i].Handler())
		defer servers[i].Close()
	}

	// Chaos: kill one frontend's executor and replace its capacity with
	// a fresh standalone executor replica.
	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		gen := 0
		for {
			select {
			case <-stopChaos:
				return
			case <-time.After(80 * time.Millisecond):
			}
			fronts[gen%nFront].KillExecutor()
			rep, err := execstore.NewReplica(execstore.ReplicaConfig{
				ID:      fmt.Sprintf("spare-%d", gen),
				Store:   store,
				Workers: 2,
				Handler: fronts[0].runTask,
			})
			if err == nil {
				t.Cleanup(rep.Kill)
			}
			gen++
		}
	}()

	// Concurrent clients, each using a different frontend, retrying on
	// shed using the precise hint.
	const nTasks = 120
	ids := make([]string, nTasks)
	var wg sync.WaitGroup
	for c := 0; c < nFront; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := servers[c].URL
			for i := c; i < nTasks; i += nFront {
				for {
					resp := postExecution(t, client, "wf", map[string]string{"msg": fmt.Sprintf("m-%d", i)})
					if resp.StatusCode == http.StatusAccepted {
						ex := decodeBody[execution](t, resp)
						ids[i] = ex.ID
						break
					}
					body := decodeBody[map[string]any](t, resp)
					ms, _ := body["retry_after_ms"].(float64)
					if ms <= 0 {
						t.Errorf("submit %d: status %d without retry_after_ms", i, resp.StatusCode)
						return
					}
					time.Sleep(time.Duration(ms) * time.Millisecond)
				}
			}
		}(c)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := store.WaitIdle(ctx); err != nil {
		t.Fatalf("soak did not converge: %v (stats %+v)", err, store.Stats())
	}
	close(stopChaos)
	chaosWG.Wait()

	// Poll a DIFFERENT frontend than the one that accepted each task:
	// statelessness means any replica answers.
	for i, id := range ids {
		url := servers[(i+1)%nFront].URL
		resp, err := http.Get(url + "/api/executions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s from peer replica: %d", id, resp.StatusCode)
		}
		ex := decodeBody[execution](t, resp)
		if ex.Status != ExecDone {
			t.Fatalf("execution %s: %s (err %q), want DONE", id, ex.Status, ex.Error)
		}
		if want := fmt.Sprintf("m-%d", i); ex.Results["echo"] != want {
			t.Fatalf("execution %s results = %v, want echo=%s", id, ex.Results, want)
		}
	}
	st := store.Stats()
	if st.Completed != nTasks {
		t.Fatalf("Completed = %d, want exactly %d", st.Completed, nTasks)
	}
	if st.Failed != 0 || st.Canceled != 0 {
		t.Fatalf("failed=%d canceled=%d", st.Failed, st.Canceled)
	}
	t.Logf("http soak: %d reclaims, %d fenced, epoch %d", st.Reclaimed, st.Fenced, st.Epoch)
}

func TestFrontendCancelAndLookupAcrossReplicas(t *testing.T) {
	reg := NewRegistry()
	block := make(chan struct{})
	if err := reg.Register(demoEntry("wf", func(params map[string]string) (map[string]string, error) {
		<-block
		return map[string]string{}, nil
	})); err != nil {
		t.Fatal(err)
	}
	store := openTestStore(t, execstore.Config{LeaseTTL: time.Minute})
	// api-0 has no executor; api-1 executes.
	f0 := newTestFrontend(t, FrontendConfig{ID: "api-0", Store: store, Registry: reg})
	f1 := newTestFrontend(t, FrontendConfig{ID: "api-1", Store: store, Registry: reg, Workers: 1})
	defer close(block)
	srv0 := httptest.NewServer(f0.Handler())
	defer srv0.Close()
	srv1 := httptest.NewServer(f1.Handler())
	defer srv1.Close()

	resp := postExecution(t, srv0.URL, "wf", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	ex := decodeBody[execution](t, resp)

	// The pure-API replica accepted it; the executing replica leases it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv1.URL + "/api/executions/" + ex.ID)
		if err != nil {
			t.Fatal(err)
		}
		got := decodeBody[execution](t, resp)
		if got.Status == ExecRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("execution never started: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Cancel via a third path (DELETE on the non-executing replica).
	req, _ := http.NewRequest(http.MethodDelete, srv0.URL+"/api/executions/"+ex.ID, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %d", resp2.StatusCode)
	}
	resp2.Body.Close()

	// 404 vs 410 taxonomy.
	resp3, _ := http.Get(srv0.URL + "/api/executions/nonexistent")
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", resp3.StatusCode)
	}
	resp3.Body.Close()
}

// TestFrontendRESTSurface pins the REST status codes one request at a
// time against a pure-API frontend (no executor, so every state is
// deterministic): each case opens a fresh store and replays its steps.
func TestFrontendRESTSurface(t *testing.T) {
	type step struct {
		method, path, body string
		token              string
		code               int
		shed               string // expected shed_reason, if any
	}
	submit := `{"workflow":"wf"}`
	cases := []struct {
		name  string
		cfg   execstore.Config
		auth  bool
		steps []step
	}{
		{name: "202 accepted", steps: []step{
			{method: "POST", path: "/api/executions", body: submit, code: http.StatusAccepted},
			{method: "GET", path: "/api/executions/task-1", code: http.StatusOK},
		}},
		{name: "404 unknown workflow", steps: []step{
			{method: "POST", path: "/api/executions", body: `{"workflow":"ghost"}`, code: http.StatusNotFound},
		}},
		{name: "400 malformed body", steps: []step{
			{method: "POST", path: "/api/executions", body: `{"workflow":`, code: http.StatusBadRequest},
		}},
		{name: "429 tenant quota", cfg: execstore.Config{PerTenantLimit: 1}, steps: []step{
			{method: "POST", path: "/api/executions", body: submit, code: http.StatusAccepted},
			{method: "POST", path: "/api/executions", body: submit, code: http.StatusTooManyRequests, shed: "tenant-quota"},
		}},
		{name: "429 tenant rate", cfg: execstore.Config{RatePerSec: 0.5, Burst: 1}, steps: []step{
			{method: "POST", path: "/api/executions", body: submit, code: http.StatusAccepted},
			{method: "POST", path: "/api/executions", body: submit, code: http.StatusTooManyRequests, shed: "tenant-rate"},
		}},
		{name: "503 depth", cfg: execstore.Config{MaxPending: 1}, steps: []step{
			{method: "POST", path: "/api/executions", body: submit, code: http.StatusAccepted},
			{method: "POST", path: "/api/executions", body: submit, code: http.StatusServiceUnavailable, shed: "depth"},
		}},
		{name: "410 evicted", cfg: execstore.Config{Retention: 1}, steps: []step{
			{method: "POST", path: "/api/executions", body: submit, code: http.StatusAccepted},
			{method: "POST", path: "/api/executions", body: submit, code: http.StatusAccepted},
			{method: "DELETE", path: "/api/executions/task-1", code: http.StatusAccepted},
			{method: "DELETE", path: "/api/executions/task-2", code: http.StatusAccepted},
			{method: "GET", path: "/api/executions/task-1", code: http.StatusGone},
			{method: "GET", path: "/api/executions/task-2", code: http.StatusOK},
			{method: "GET", path: "/api/executions/task-3", code: http.StatusNotFound},
		}},
		{name: "409 cancel terminal", steps: []step{
			{method: "POST", path: "/api/executions", body: submit, code: http.StatusAccepted},
			{method: "DELETE", path: "/api/executions/task-1", code: http.StatusAccepted},
			{method: "DELETE", path: "/api/executions/task-1", code: http.StatusConflict},
			{method: "DELETE", path: "/api/executions/task-9", code: http.StatusNotFound},
		}},
		{name: "status filters", steps: []step{
			{method: "GET", path: "/api/executions?status=queued", code: http.StatusOK},
			{method: "GET", path: "/api/executions?status=canceled", code: http.StatusOK},
			{method: "GET", path: "/api/executions?status=bogus", code: http.StatusBadRequest},
		}},
		{name: "bearer token required once set", auth: true, steps: []step{
			{method: "GET", path: "/api/workflows", code: http.StatusUnauthorized},
			{method: "GET", path: "/api/workflows", token: "wrong", code: http.StatusUnauthorized},
			{method: "POST", path: "/api/executions", body: submit, token: "tok", code: http.StatusAccepted},
			{method: "GET", path: "/metrics", code: http.StatusOK},
		}},
		{name: "open API without tokens", steps: []step{
			{method: "GET", path: "/api/workflows", code: http.StatusOK},
			{method: "GET", path: "/api/store", code: http.StatusOK},
			{method: "GET", path: "/api/health", code: http.StatusOK},
		}},
		{name: "deployment routes", steps: []step{
			{method: "GET", path: "/api/workflows/wf", code: http.StatusOK},
			{method: "POST", path: "/api/workflows/ghost/deploy", body: `{}`, code: http.StatusNotFound},
			{method: "GET", path: "/api/deployments/dep-1", code: http.StatusNotFound},
			{method: "POST", path: "/api/deployments/dep-1/undeploy", code: http.StatusNotFound},
		}},
		{name: "metrics is read-only", steps: []step{
			{method: "POST", path: "/metrics", code: http.StatusMethodNotAllowed},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := openTestStore(t, tc.cfg)
			f := newTestFrontend(t, FrontendConfig{ID: "api-0", Store: store})
			if tc.auth {
				f.AuthorizeToken("tok", "alice")
			}
			srv := httptest.NewServer(f.Handler())
			defer srv.Close()
			for i, st := range tc.steps {
				req, _ := http.NewRequest(st.method, srv.URL+st.path, strings.NewReader(st.body))
				if st.token != "" {
					req.Header.Set("Authorization", "Bearer "+st.token)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != st.code {
					t.Fatalf("step %d %s %s = %d, want %d (%s)", i, st.method, st.path, resp.StatusCode, st.code, body)
				}
				if st.shed == "" {
					continue
				}
				var shed map[string]any
				json.Unmarshal(body, &shed)
				if shed["shed_reason"] != st.shed || resp.Header.Get("Retry-After") == "" {
					t.Fatalf("step %d: shed %v Retry-After %q, want reason %s", i, shed, resp.Header.Get("Retry-After"), st.shed)
				}
			}
		})
	}
}
