package hpcwaas

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/execstore"
)

// TestConcurrentAPIStress fires many parallel POST /api/executions from
// two principals against a tiny store and asserts quota enforcement,
// 429/503 + Retry-After semantics and that every accepted execution
// reaches exactly one terminal state (run with -race).
func TestConcurrentAPIStress(t *testing.T) {
	api := newAPI(t, execstore.Config{MaxPending: 4, PerTenantLimit: 3}, 2,
		demoEntry("climate", func(params map[string]string) (map[string]string, error) {
			time.Sleep(2 * time.Millisecond)
			return map[string]string{"ok": "1"}, nil
		}))
	api.front.AuthorizeToken("tok-alice", "alice")
	api.front.AuthorizeToken("tok-bob", "bob")
	srv := api.srv

	post := func(token string) (int, string, string, error) {
		body, _ := json.Marshal(map[string]any{"workflow": "climate"})
		req, _ := http.NewRequest("POST", srv.URL+"/api/executions", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := srv.Client().Do(req)
		if err != nil {
			return 0, "", "", err
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		id, _ := out["id"].(string)
		return resp.StatusCode, id, resp.Header.Get("Retry-After"), nil
	}

	const perPrincipal = 30
	var (
		mu       sync.Mutex
		accepted []string
		shed     int
	)
	var wg sync.WaitGroup
	for _, token := range []string{"tok-alice", "tok-bob"} {
		for i := 0; i < perPrincipal; i++ {
			wg.Add(1)
			go func(token string) {
				defer wg.Done()
				code, id, retryAfter, err := post(token)
				if err != nil {
					t.Error(err)
					return
				}
				switch code {
				case http.StatusAccepted:
					mu.Lock()
					accepted = append(accepted, id)
					mu.Unlock()
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if secs, err := strconv.Atoi(retryAfter); err != nil || secs < 1 {
						t.Errorf("%d without usable Retry-After: %q", code, retryAfter)
					}
					mu.Lock()
					shed++
					mu.Unlock()
				default:
					t.Errorf("unexpected status %d", code)
				}
			}(token)
		}
	}
	// concurrently observe the store: per-principal live tasks must
	// respect the quota at every sample
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			live := map[string]int{}
			for _, v := range api.store.List("") {
				if !v.State.Terminal() {
					live[v.Tenant]++
				}
			}
			for p, n := range live {
				if n > 3 {
					t.Errorf("principal %s over quota: %d live tasks", p, n)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	sampler.Wait()

	mu.Lock()
	ids := append([]string(nil), accepted...)
	nShed := shed
	mu.Unlock()
	if len(ids)+nShed != 2*perPrincipal {
		t.Fatalf("accepted %d + shed %d != %d", len(ids), nShed, 2*perPrincipal)
	}
	if len(ids) == 0 || nShed == 0 {
		t.Fatalf("load did not exercise admission: accepted=%d shed=%d", len(ids), nShed)
	}
	if st := api.store.Stats(); st.Shed[string(execstore.ShedTenantQuota)]+st.Shed[string(execstore.ShedDepth)] == 0 {
		t.Fatalf("no admission sheds recorded: %+v", st)
	}

	waitIdle(t, api.store)

	// no lost or duplicated terminal states: every accepted ID appears
	// exactly once in the listing, DONE
	req, _ := http.NewRequest("GET", srv.URL+"/api/executions", nil)
	req.Header.Set("Authorization", "Bearer tok-alice")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[[]execution](t, resp)
	seen := make(map[string]int)
	for _, ex := range list {
		seen[ex.ID]++
		if ex.Status != ExecDone {
			t.Errorf("execution %s status = %s, want DONE", ex.ID, ex.Status)
		}
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Errorf("accepted execution %s listed %d times", id, seen[id])
		}
	}
	if len(list) != len(ids) {
		t.Fatalf("listing has %d executions, accepted %d", len(list), len(ids))
	}
}

// TestExecutionRetention: old completed records evict, evicted IDs
// answer 410, and unknown ones 404.
func TestExecutionRetention(t *testing.T) {
	api := newAPI(t, execstore.Config{Retention: 3}, 1)
	for i := 0; i < 6; i++ {
		api.submit(t, "climate", nil)
		waitIdle(t, api.store) // serialize so eviction order is deterministic
	}
	list := api.list(t, "")
	if len(list) != 3 {
		t.Fatalf("retained %d records, want 3", len(list))
	}
	if list[0].ID != "task-4" || list[2].ID != "task-6" {
		t.Fatalf("retained window = %s..%s, want task-4..task-6", list[0].ID, list[2].ID)
	}
	for path, want := range map[string]int{
		"/api/executions/task-1":   http.StatusGone,
		"/api/executions/task-999": http.StatusNotFound,
		"/api/executions/nonsense": http.StatusNotFound,
	} {
		if code, _ := restCall(t, api.srv, "GET", path, nil); code != want {
			t.Fatalf("GET %s = %d, want %d", path, code, want)
		}
	}
}

// TestListExecutionsOrderAndFilter covers submission order and the
// ?status= filter.
func TestListExecutionsOrderAndFilter(t *testing.T) {
	api := newAPI(t, execstore.Config{}, 1,
		demoEntry("climate", func(params map[string]string) (map[string]string, error) {
			if params["n"] == "1" {
				return nil, errors.New("synthetic failure")
			}
			return map[string]string{"ok": "1"}, nil
		}))
	for i := 0; i < 4; i++ {
		api.submit(t, "climate", map[string]string{"n": strconv.Itoa(i)})
	}
	waitIdle(t, api.store)

	list := api.list(t, "")
	if len(list) != 4 {
		t.Fatalf("list len = %d", len(list))
	}
	for i, ex := range list {
		if want := "task-" + strconv.Itoa(i+1); ex.ID != want {
			t.Fatalf("list[%d] = %s, want %s (submission order)", i, ex.ID, want)
		}
	}
	if failed := api.list(t, "?status=failed"); len(failed) != 1 || failed[0].ID != "task-2" || failed[0].Status != ExecFailed {
		t.Fatalf("failed filter = %+v", failed)
	}
	if done := api.list(t, "?status=DONE"); len(done) != 3 {
		t.Fatalf("done filter = %+v", done)
	}
	if code, _ := restCall(t, api.srv, "GET", "/api/executions?status=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bogus filter code = %d", code)
	}
}

// TestCancelEndpoint exercises DELETE /api/executions/{id} on a queued,
// a running and a terminal execution.
func TestCancelEndpoint(t *testing.T) {
	release := make(chan struct{})
	api := newAPI(t, execstore.Config{LeaseTTL: 90 * time.Millisecond}, 0,
		demoEntry("climate", func(params map[string]string) (map[string]string, error) {
			<-release // only cancellation ends the execution
			return nil, nil
		}))
	t.Cleanup(func() { close(release) })

	// Nothing executes yet: the execution stays queued.
	queued := api.submit(t, "climate", nil)
	code, body := restCall(t, api.srv, "DELETE", "/api/executions/"+queued, nil)
	if code != http.StatusAccepted || body["status"] != "CANCELED" {
		t.Fatalf("cancel queued = %d %v", code, body)
	}
	// terminal record: conflict
	if code, _ = restCall(t, api.srv, "DELETE", "/api/executions/"+queued, nil); code != http.StatusConflict {
		t.Fatalf("double cancel code = %d", code)
	}
	if code, _ = restCall(t, api.srv, "DELETE", "/api/executions/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("ghost cancel code = %d", code)
	}

	// A running execution is canceled through its lease: the executor
	// sees the request on its next renew.
	newTestFrontend(t, FrontendConfig{ID: "exec-0", Store: api.store, Registry: api.front.reg, Workers: 1})
	running := api.submit(t, "climate", nil)
	waitStatus(t, api, running, ExecRunning)
	if code, body = restCall(t, api.srv, "DELETE", "/api/executions/"+running, nil); code != http.StatusAccepted {
		t.Fatalf("cancel running = %d %v", code, body)
	}
	waitStatus(t, api, running, ExecCanceled)
}

// waitStatus polls an execution until it reaches want.
func waitStatus(t *testing.T, api *testAPI, id string, want ExecStatus) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, got := restCall(t, api.srv, "GET", "/api/executions/"+id, nil)
		if got["status"] == string(want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %s: %v", id, want, got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueueEndpointAndDrain exercises GET /api/store, the queue's
// stats, and the graceful drain path.
func TestQueueEndpointAndDrain(t *testing.T) {
	api := newAPI(t, execstore.Config{}, 2,
		demoEntry("climate", func(params map[string]string) (map[string]string, error) {
			time.Sleep(time.Millisecond)
			return map[string]string{"ok": "1"}, nil
		}))
	for i := 0; i < 6; i++ {
		api.submit(t, "climate", nil)
	}
	code, stats := restCall(t, api.srv, "GET", "/api/store", nil)
	if code != http.StatusOK || stats["submitted"].(float64) != 6 || stats["replicas_live"].(float64) != 1 {
		t.Fatalf("store stats = %d %v", code, stats)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	api.store.Drain()
	if err := api.store.WaitIdle(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := api.front.Drain(ctx); err != nil {
		t.Fatalf("executor drain: %v", err)
	}
	// intake refused after drain
	code, body := restCall(t, api.srv, "POST", "/api/executions", map[string]any{"workflow": "climate"})
	if code != http.StatusServiceUnavailable || body["shed_reason"] != "draining" {
		t.Fatalf("post-drain submit = %d %v", code, body)
	}
	if done := api.list(t, "?status=done"); len(done) != 6 {
		t.Fatalf("done executions = %d, want 6", len(done))
	}
	code, stats = restCall(t, api.srv, "GET", "/api/store", nil)
	if code != http.StatusOK || stats["draining"] != true {
		t.Fatalf("post-drain stats = %d %v", code, stats)
	}
	// every run lands in the latency summaries
	for _, h := range []string{"wait", "run", "e2e"} {
		sum := stats[h].(map[string]any)
		if sum["count"].(float64) != 6 || sum["p50_seconds"].(float64) <= 0 {
			t.Fatalf("%s summary = %v, want 6 samples", h, sum)
		}
	}
}

// TestJournalRecoveryAcrossServices covers crash recovery: executions
// in a first store's journal are re-run by a second store and frontend
// opened on the same journal after the first process "crashed".
func TestJournalRecoveryAcrossServices(t *testing.T) {
	journal := t.TempDir() + "/exec-journal.jsonl"
	gate := make(chan struct{})
	defer close(gate) // release the abandoned app goroutine
	started := make(chan struct{}, 3)

	reg1 := NewRegistry()
	if err := reg1.Register(demoEntry("climate", func(params map[string]string) (map[string]string, error) {
		started <- struct{}{}
		<-gate
		return map[string]string{"ok": "1"}, nil
	})); err != nil {
		t.Fatal(err)
	}
	store1, err := execstore.Open(execstore.Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	f1, err := NewFrontend(FrontendConfig{ID: "api-1", Store: store1, Registry: reg1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := store1.Submit(execstore.Task{Tenant: "anonymous", Kind: "climate",
			Payload: json.RawMessage(`{"n":"` + strconv.Itoa(i) + `"}`)}); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	// "crash": the executor dies without reporting and the store closes
	// with all three still live in the journal.
	f1.KillExecutor()
	store1.Close()

	var mu sync.Mutex
	ran := map[string]bool{}
	api := newAPI(t, execstore.Config{JournalPath: journal}, 2,
		demoEntry("climate", func(params map[string]string) (map[string]string, error) {
			mu.Lock()
			ran[params["n"]] = true
			mu.Unlock()
			return map[string]string{"recovered": "yes"}, nil
		}))
	waitIdle(t, api.store)

	mu.Lock()
	n := len(ran)
	mu.Unlock()
	if n != 3 {
		t.Fatalf("recovered runs = %d, want 3", n)
	}
	list := api.list(t, "?status=done")
	if len(list) != 3 {
		t.Fatalf("recovered DONE records = %d, want 3", len(list))
	}
	for _, ex := range list {
		if ex.Results["recovered"] != "yes" {
			t.Fatalf("recovered record missing results: %+v", ex)
		}
	}
	// new IDs allocate past the recovered ones
	if id := api.submit(t, "climate", nil); id != "task-4" {
		t.Fatalf("post-recovery ID = %s, want task-4", id)
	}
}

// TestPriorityViaREST covers the priority field on POST /api/executions:
// within one tenant, higher priority dispatches first.
func TestPriorityViaREST(t *testing.T) {
	var mu sync.Mutex
	var order []string
	api := newAPI(t, execstore.Config{}, 0,
		demoEntry("climate", func(params map[string]string) (map[string]string, error) {
			mu.Lock()
			order = append(order, params["tag"])
			mu.Unlock()
			return map[string]string{}, nil
		}))

	// Both wait in the store until an executor joins.
	for _, sub := range []struct {
		tag string
		pri int
	}{{"low", 0}, {"high", 9}} {
		code, body := restCall(t, api.srv, "POST", "/api/executions", map[string]any{
			"workflow": "climate",
			"params":   map[string]string{"tag": sub.tag},
			"priority": sub.pri,
		})
		if code != http.StatusAccepted {
			t.Fatalf("submit %s = %d %v", sub.tag, code, body)
		}
	}
	newTestFrontend(t, FrontendConfig{ID: "exec-0", Store: api.store, Registry: api.front.reg, Workers: 1})
	waitIdle(t, api.store)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Fatalf("dispatch order = %v, want [high low]", order)
	}
}
