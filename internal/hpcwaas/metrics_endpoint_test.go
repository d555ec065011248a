package hpcwaas

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/execstore"
	"repro/internal/obs"
)

// TestMetricsEndpoint drives one execution through the REST API and
// asserts GET /metrics serves the store's execstore_* instrument
// surface in Prometheus text format — without a bearer token, even
// when the rest of the API requires one.
func TestMetricsEndpoint(t *testing.T) {
	mreg := obs.NewRegistry()
	store := openTestStore(t, execstore.Config{Metrics: mreg})
	reg := NewRegistry()
	reg.Register(demoEntry("climate", nil))
	f := newTestFrontend(t, FrontendConfig{ID: "api-0", Store: store, Registry: reg, Workers: 1, Metrics: mreg})
	if err := f.AuthorizeToken("s3cret", "alice"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	req, _ := http.NewRequest("POST", srv.URL+"/api/executions", strings.NewReader(`{"workflow":"climate","params":{"msg":"hi"}}`))
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("authenticated submit = %d", resp.StatusCode)
	}
	waitIdle(t, store)

	// API routes demand the token...
	resp, err = srv.Client().Get(srv.URL + "/api/store")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /api/store = %d, want 401", resp.StatusCode)
	}

	// ...but the scrape endpoint does not.
	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE execstore_submitted_total counter",
		"execstore_submitted_total 1",
		"execstore_completed_total 1",
		"# TYPE execstore_pending gauge",
		"execstore_pending 0",
		"execstore_replicas_live 1",
		"# TYPE execstore_wait_seconds histogram",
		`execstore_wait_seconds_bucket{le="+Inf"} 1`,
		"execstore_wait_seconds_count 1",
		"# TYPE execstore_run_seconds histogram",
		"execstore_run_seconds_count 1",
		"# TYPE execstore_shed_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", text)
	}

	// Writes to the scrape endpoint are refused.
	resp, err = srv.Client().Post(srv.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", resp.StatusCode)
	}
}
