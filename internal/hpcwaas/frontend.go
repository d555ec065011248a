package hpcwaas

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/chaos"
	"repro/internal/execstore"
	"repro/internal/imagebuilder"
	"repro/internal/obs"
)

// Frontend is one stateless HPCWaaS API replica over a shared
// execstore.Store — Figure 1's Execution API, "workflow execution as a
// simple REST invocation". A Frontend owns nothing durable: every
// execution lives in the store, so N frontends behind a load balancer
// answer interchangeably — submit on one, poll on another, cancel on a
// third — and killing a frontend loses no work. Execution capacity is
// equally replaceable: each frontend may embed an executor replica
// (Workers > 0), and the store's epoch-fenced leases guarantee that a
// crashed executor's tasks are reclaimed and completed exactly once by
// a surviving peer. A single-process service is one Frontend over an
// in-process store.
//
// Admission is the store's cost-based policy, mapped onto HTTP:
// tenant-caused sheds (quota, rate) answer 429, capacity sheds (depth,
// backlog-cost, draining) answer 503 — both with a Retry-After header
// (whole seconds, ceiled) and a machine-precision retry_after_ms JSON
// field derived from the limiter's actual next-token time, so a client
// that sleeps exactly retry_after_ms is admitted on its next try.
type Frontend struct {
	cfg   FrontendConfig
	reg   *Registry
	dep   *Deployer
	store *execstore.Store
	rep   *execstore.Replica
	met   *obs.Registry

	mu     sync.Mutex
	tokens map[string]string // token → principal
}

// FrontendConfig wires one API replica.
type FrontendConfig struct {
	// ID names the replica ("api-1"); it doubles as the executor
	// replica ID when Workers > 0.
	ID string
	// Store is the shared execution store.
	Store *execstore.Store
	// Registry is the (shared) workflow registry.
	Registry *Registry
	// Deployer serves the deployment routes; nil gets a default
	// deployer (fresh image builder and DLS, x86_64/openmpi4).
	Deployer *Deployer
	// Workers sizes the embedded executor replica; 0 makes this a pure
	// API replica that submits and reads but never executes.
	Workers int
	// Metrics is the registry served at GET /metrics; nil creates a
	// private one. Note the store's instruments live on the STORE's
	// registry — pass the same registry to both to scrape everything
	// from one endpoint.
	Metrics *obs.Registry
}

// NewFrontend starts an API replica (and its embedded executor when
// Workers > 0) over the shared store.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("hpcwaas: frontend needs a store")
	}
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	if cfg.Deployer == nil {
		cfg.Deployer = NewDeployer(nil, nil, imagebuilder.Platform{})
	}
	if cfg.ID == "" {
		return nil, fmt.Errorf("hpcwaas: frontend needs an id")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	f := &Frontend{cfg: cfg, reg: cfg.Registry, dep: cfg.Deployer, store: cfg.Store, met: cfg.Metrics}
	if cfg.Workers > 0 {
		rep, err := execstore.NewReplica(execstore.ReplicaConfig{
			ID:      cfg.ID,
			Store:   cfg.Store,
			Workers: cfg.Workers,
			Handler: f.runTask,
		})
		if err != nil {
			return nil, err
		}
		f.rep = rep
	}
	return f, nil
}

// runTask executes one leased task: the task Kind is the workflow name
// (which also keys the store's cost model, so each workflow type's
// admission estimate learns from its own runtime distribution) and the
// payload is the parameter map. Output is canonical JSON (sorted keys),
// keeping re-executions byte-identical.
func (f *Frontend) runTask(ctx context.Context, t execstore.TaskView) (json.RawMessage, error) {
	entry, ok := f.reg.Lookup(t.Kind)
	if !ok {
		return nil, chaos.Permanent(fmt.Errorf("hpcwaas: unknown workflow %q", t.Kind))
	}
	var params map[string]string
	if len(t.Payload) > 0 {
		if err := json.Unmarshal(t.Payload, &params); err != nil {
			return nil, chaos.Permanent(fmt.Errorf("hpcwaas: decode params: %w", err))
		}
	}
	type result struct {
		out map[string]string
		err error
	}
	ch := make(chan result, 1)
	go func() {
		out, err := runApp(entry.App, params)
		ch <- result{out, err}
	}()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case r := <-ch:
		if r.err != nil {
			return nil, r.err
		}
		out, err := json.Marshal(r.out)
		if err != nil {
			return nil, chaos.Permanent(err)
		}
		return out, nil
	}
}

// AuthorizeToken registers an API token for the named principal. Once
// at least one token exists, every API route must carry
// "Authorization: Bearer <token>" — the stand-in for the credential
// vault the eFlows4HPC HPCWaaS uses so final users never handle SSH
// keys themselves. The principal is also the tenant that store quotas,
// rate limits and fair share are accounted against. Register the same
// tokens on every frontend: they are configuration, not shared state.
func (f *Frontend) AuthorizeToken(token, principal string) error {
	if token == "" {
		return fmt.Errorf("hpcwaas: empty token")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tokens == nil {
		f.tokens = make(map[string]string)
	}
	f.tokens[token] = principal
	return nil
}

// authenticate returns the principal for a request, or "" with false
// when authentication fails. With no registered tokens the API is open
// (development mode).
func (f *Frontend) authenticate(r *http.Request) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.tokens) == 0 {
		return "anonymous", true
	}
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(h, prefix) {
		return "", false
	}
	principal, ok := f.tokens[strings.TrimPrefix(h, prefix)]
	return principal, ok
}

// Store exposes the shared store (drivers register executor capacity
// and weights through it).
func (f *Frontend) Store() *execstore.Store { return f.store }

// Drain gracefully stops the embedded executor (if any); the API keeps
// serving reads and submissions against the shared store.
func (f *Frontend) Drain(ctx context.Context) error {
	if f.rep != nil {
		return f.rep.Drain(ctx)
	}
	return nil
}

// KillExecutor crashes the embedded executor without reporting anything
// to the store (chaos hook): held leases expire and peers reclaim them.
// The HTTP API stays up — a frontend that lost its executor is still a
// valid API replica.
func (f *Frontend) KillExecutor() {
	if f.rep != nil {
		f.rep.Kill()
	}
}

// ExecStatus is the REST name of a store task state.
type ExecStatus string

// Execution states: QUEUED is a PENDING task (admitted, or parked
// between retry attempts), RUNNING a LEASED one.
const (
	ExecQueued   ExecStatus = "QUEUED"
	ExecRunning  ExecStatus = "RUNNING"
	ExecDone     ExecStatus = "DONE"
	ExecFailed   ExecStatus = "FAILED"
	ExecCanceled ExecStatus = "CANCELED"
)

// execution is the REST view of a store task.
type execution struct {
	ID        string            `json:"id"`
	Workflow  string            `json:"workflow"`
	Principal string            `json:"principal,omitempty"`
	Status    ExecStatus        `json:"status"`
	Attempt   int               `json:"attempt,omitempty"`
	Params    map[string]string `json:"params,omitempty"`
	Results   map[string]string `json:"results,omitempty"`
	Error     string            `json:"error,omitempty"`
}

func toExecution(t execstore.TaskView) execution {
	ex := execution{
		ID:        t.ID,
		Workflow:  t.Kind,
		Principal: t.Tenant,
		Attempt:   t.Attempt,
		Error:     t.Err,
	}
	switch t.State {
	case execstore.StatePending:
		ex.Status = ExecQueued
	case execstore.StateLeased:
		ex.Status = ExecRunning
	case execstore.StateDone:
		ex.Status = ExecDone
	case execstore.StateFailed:
		ex.Status = ExecFailed
	case execstore.StateCanceled:
		ex.Status = ExecCanceled
	}
	if len(t.Payload) > 0 {
		_ = json.Unmarshal(t.Payload, &ex.Params)
	}
	if len(t.Output) > 0 {
		_ = json.Unmarshal(t.Output, &ex.Results)
	}
	return ex
}

// writeShed maps a store admission rejection onto HTTP: 429 when the
// tenant can fix it (quota, rate), 503 when capacity is the bottleneck
// (depth, backlog-cost, draining). Retry-After carries ceiled whole
// seconds for standard clients; retry_after_ms carries the precise
// hint (ceiled to the next millisecond) for clients that can use it —
// sleeping exactly retry_after_ms is sufficient for re-admission.
func writeShed(w http.ResponseWriter, se *execstore.ShedError) {
	secs := int(math.Ceil(se.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	code := http.StatusServiceUnavailable
	if se.TenantCaused() {
		code = http.StatusTooManyRequests
	}
	body := map[string]any{
		"error":          se.Error(),
		"shed_reason":    string(se.Reason),
		"retry_after_ms": int64(math.Ceil(se.RetryAfter.Seconds() * 1000)),
	}
	if se.EstimatedWait > 0 {
		body["estimated_wait_ms"] = int64(math.Ceil(se.EstimatedWait.Seconds() * 1000))
	}
	writeJSON(w, code, body)
}

// Handler returns the REST API. Routes:
//
//	GET    /api/workflows                  list registered workflows
//	GET    /api/workflows/{name}           workflow detail (topology)
//	POST   /api/workflows/{name}/deploy    deploy ({"target": "..."})
//	GET    /api/deployments/{id}           deployment status/log
//	POST   /api/deployments/{id}/undeploy  tear down
//	POST   /api/executions                 submit ({"workflow","params","priority"})
//	GET    /api/executions[?status=S]      list retained executions, submission order
//	GET    /api/executions/{id}            status/results (410 if evicted)
//	DELETE /api/executions/{id}            cancel a queued/running execution
//	GET    /api/store                      store stats (leases, shed counters, latency)
//	GET    /api/health                     liveness + replica identity
//	GET    /metrics                        Prometheus text exposition
//
// POST /api/executions answers 202 on admission, 429/503 + Retry-After
// + shed reason on shed (see writeShed). Executions run straight from
// the registry; a deployment is the Yorc-side record of the topology,
// not a gate. All execution state is in the shared store: any replica
// answers for any execution. When AuthorizeToken has registered at
// least one token, every route but /metrics requires it.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /api/workflows", func(w http.ResponseWriter, r *http.Request) {
		type item struct {
			Name        string `json:"name"`
			Version     string `json:"version"`
			Description string `json:"description"`
		}
		out := []item{}
		for _, name := range f.reg.List() {
			e, _ := f.reg.Lookup(name)
			out = append(out, item{Name: e.Name, Version: e.Version, Description: e.Description})
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /api/workflows/{name}", func(w http.ResponseWriter, r *http.Request) {
		e, ok := f.reg.Lookup(r.PathValue("name"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown workflow")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"name":        e.Name,
			"version":     e.Version,
			"description": e.Description,
			"topology":    e.Topology,
		})
	})

	mux.HandleFunc("POST /api/workflows/{name}/deploy", func(w http.ResponseWriter, r *http.Request) {
		e, ok := f.reg.Lookup(r.PathValue("name"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown workflow")
			return
		}
		var body struct {
			Target string `json:"target"`
		}
		if err := decodeJSON(r, &body); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if body.Target == "" {
			body.Target = "default-cluster"
		}
		dep, err := f.dep.Deploy(e, body.Target)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusCreated, dep)
	})

	mux.HandleFunc("GET /api/deployments/{id}", func(w http.ResponseWriter, r *http.Request) {
		dep, ok := f.dep.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown deployment")
			return
		}
		writeJSON(w, http.StatusOK, dep)
	})

	mux.HandleFunc("POST /api/deployments/{id}/undeploy", func(w http.ResponseWriter, r *http.Request) {
		dep, ok := f.dep.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown deployment")
			return
		}
		e, ok := f.reg.Lookup(dep.Workflow)
		if !ok {
			httpError(w, http.StatusConflict, "workflow no longer registered")
			return
		}
		if err := f.dep.Undeploy(dep.ID, e.Topology); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		dep, _ = f.dep.Get(dep.ID) // re-read: status changed
		writeJSON(w, http.StatusOK, dep)
	})

	mux.HandleFunc("POST /api/executions", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Workflow string            `json:"workflow"`
			Params   map[string]string `json:"params"`
			Priority int               `json:"priority"`
		}
		if err := decodeJSON(r, &body); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if _, ok := f.reg.Lookup(body.Workflow); !ok {
			httpError(w, http.StatusNotFound, fmt.Sprintf("unknown workflow %q", body.Workflow))
			return
		}
		payload, err := json.Marshal(body.Params)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		principal, _ := r.Context().Value(principalKey{}).(string)
		v, err := f.store.Submit(execstore.Task{
			Tenant:   principal,
			Kind:     body.Workflow,
			Priority: body.Priority,
			Payload:  payload,
		})
		if err != nil {
			if se, ok := execstore.AsShed(err); ok {
				writeShed(w, se)
				return
			}
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		writeJSON(w, http.StatusAccepted, toExecution(v))
	})

	mux.HandleFunc("GET /api/executions", func(w http.ResponseWriter, r *http.Request) {
		var state execstore.State
		switch ExecStatus(strings.ToUpper(r.URL.Query().Get("status"))) {
		case "":
		case ExecQueued:
			state = execstore.StatePending
		case ExecRunning:
			state = execstore.StateLeased
		case ExecDone:
			state = execstore.StateDone
		case ExecFailed:
			state = execstore.StateFailed
		case ExecCanceled:
			state = execstore.StateCanceled
		default:
			httpError(w, http.StatusBadRequest, "unknown status filter")
			return
		}
		out := []execution{}
		for _, t := range f.store.List(state) {
			out = append(out, toExecution(t))
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /api/executions/{id}", func(w http.ResponseWriter, r *http.Request) {
		t, st := f.store.Lookup(r.PathValue("id"))
		switch st {
		case execstore.LookupExpired:
			httpError(w, http.StatusGone, "execution expired from retention")
		case execstore.LookupUnknown:
			httpError(w, http.StatusNotFound, "unknown execution")
		default:
			writeJSON(w, http.StatusOK, toExecution(t))
		}
	})

	mux.HandleFunc("DELETE /api/executions/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		err := f.store.Cancel(id)
		switch {
		case err == nil:
			t, _ := f.store.Lookup(id)
			writeJSON(w, http.StatusAccepted, toExecution(t))
		case errors.Is(err, execstore.ErrUnknownTask):
			httpError(w, http.StatusNotFound, err.Error())
		default: // already terminal
			httpError(w, http.StatusConflict, err.Error())
		}
	})

	mux.HandleFunc("GET /api/store", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.store.Stats())
	})

	mux.HandleFunc("GET /api/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":    "ok",
			"replica":   f.cfg.ID,
			"executor":  f.rep != nil,
			"workflows": len(f.reg.List()),
		})
	})

	// The scrape endpoint sits outside the bearer-token wrapper:
	// monitoring systems poll it without tenant credentials, and it
	// exposes no per-tenant data.
	metrics := obs.Handler(f.met)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			if r.Method != http.MethodGet {
				httpError(w, http.StatusMethodNotAllowed, "metrics is read-only")
				return
			}
			metrics.ServeHTTP(w, r)
			return
		}
		principal, ok := f.authenticate(r)
		if !ok {
			httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		mux.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), principalKey{}, principal)))
	})
}

// runApp isolates application panics as errors.
func runApp(app AppFunc, params map[string]string) (out map[string]string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("hpcwaas: application panicked: %v", p)
		}
	}()
	return app(params)
}

// principalKey carries the authenticated principal in the request
// context.
type principalKey struct{}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}
