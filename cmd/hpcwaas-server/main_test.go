package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/execstore"
	"repro/internal/obs"
)

// call issues one request and decodes a JSON object body if there is
// one.
func call(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var out map[string]any
	json.Unmarshal(data, &out)
	if out == nil {
		out = map[string]any{"raw": string(data)}
	}
	return resp.StatusCode, out
}

// TestServeSameRoutesAtEveryReplicaCount runs the server's one serve
// path at one and at three replicas and walks the whole route set on
// every replica: deploy, submit, poll, cancel, undeploy, store, health
// and metrics. Each execution is polled on a different replica than
// the one that accepted it, and one climate-extremes run goes end to
// end through the real workflow.
func TestServeSameRoutesAtEveryReplicaCount(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			srv, err := start("127.0.0.1:0", n, 2, t.TempDir(), execstore.Config{
				LeaseTTL: 300 * time.Millisecond, Metrics: obs.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(srv.urls) != n {
				t.Fatalf("%d listeners, want %d", len(srv.urls), n)
			}
			for i, u := range srv.urls {
				peer := srv.urls[(i+1)%n]
				if code, _ := call(t, "GET", u+"/api/workflows/climate-extremes", ""); code != http.StatusOK {
					t.Fatalf("replica %d workflow detail = %d", i, code)
				}
				code, dep := call(t, "POST", u+"/api/workflows/climate-extremes/deploy", `{"target":"zeus"}`)
				if code != http.StatusCreated || dep["Status"] != "DEPLOYED" {
					t.Fatalf("replica %d deploy = %d %v", i, code, dep)
				}
				depURL := peer + "/api/deployments/" + dep["ID"].(string)
				if code, _ := call(t, "GET", depURL, ""); code != http.StatusOK {
					t.Fatalf("replica %d deployment from peer = %d", i, code)
				}

				code, ex := call(t, "POST", u+"/api/executions",
					`{"workflow":"climate-extremes","params":{"years":"1","days_per_year":"12"}}`)
				if code != http.StatusAccepted {
					t.Fatalf("replica %d submit = %d %v", i, code, ex)
				}
				id := ex["id"].(string)
				if !strings.HasPrefix(id, "task-") {
					t.Fatalf("execution id %q, want task-N", id)
				}
				deadline := time.Now().Add(30 * time.Second)
				for ex["status"] != "DONE" {
					if ex["status"] == "FAILED" || time.Now().After(deadline) {
						t.Fatalf("replica %d execution %s: %v", i, id, ex)
					}
					time.Sleep(10 * time.Millisecond)
					_, ex = call(t, "GET", peer+"/api/executions/"+id, "")
				}
				if res, _ := ex["results"].(map[string]any); res["years_processed"] != "1" || res["files_produced"] == "0" {
					t.Fatalf("replica %d results = %v", i, ex["results"])
				}

				// A finished execution cannot be canceled. (Cancelling a
				// running one is pinned in internal/hpcwaas; here its app
				// would go on writing into the test's directory.)
				if code, _ := call(t, "DELETE", peer+"/api/executions/"+id, ""); code != http.StatusConflict {
					t.Fatalf("replica %d cancel of a DONE execution from peer = %d, want 409", i, code)
				}
				if code, got := call(t, "POST", depURL+"/undeploy", ""); code != http.StatusOK || got["Status"] != "UNDEPLOYED" {
					t.Fatalf("replica %d undeploy = %d %v", i, code, got)
				}
				for _, path := range []string{"/api/workflows", "/api/executions?status=done", "/api/store", "/api/health"} {
					if code, _ := call(t, "GET", u+path, ""); code != http.StatusOK {
						t.Fatalf("replica %d GET %s = %d", i, path, code)
					}
				}
				if code, m := call(t, "GET", u+"/metrics", ""); code != http.StatusOK || !strings.Contains(m["raw"].(string), "execstore_completed_total") {
					t.Fatalf("replica %d /metrics = %d", i, code)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			if st := srv.store.Stats(); st.Completed < uint64(n) || st.Pending+st.Leased != 0 {
				t.Fatalf("after shutdown: %+v", st)
			}
		})
	}
}
