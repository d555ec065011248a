// Package compss implements a task-based parallel programming model in
// the mold of PyCOMPSs/COMPSs (Tejedor et al. 2017; Badia et al. 2015),
// the orchestrator of the paper's climate workflow.
//
// The programming model mirrors the paper's §4.2.1:
//
//   - functions are registered as tasks, with per-parameter
//     directionality (IN, OUT, INOUT) declared at invocation;
//   - every invocation becomes a node in a task graph; data dependencies
//     are inferred automatically from directionality (a reader depends on
//     the last writer, a writer on the last writer and on intervening
//     readers);
//   - the runtime executes tasks asynchronously on a worker pool as soon
//     as their dependencies are satisfied, exploiting the potential
//     parallelism of the graph;
//   - results are futures; calling Get synchronizes, like PyCOMPSs'
//     compss_wait_on;
//   - per-task fault-tolerance policies (fail-fast, retry, ignore,
//     cancel-successors) follow Ejarque et al. 2020;
//   - task-level checkpointing enables recovering a failed execution
//     from the last checkpointed task (Vergés et al. 2023).
package compss

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/obs"
)

// Direction declares how a task uses a parameter, as the paper's @task
// decorator does ("IN indicates data used by the task, OUT indicates
// data created in the task, INOUT indicates data modified in the task").
type Direction int

// Parameter directionality.
const (
	DirIn Direction = iota
	DirOut
	DirInOut
)

func (d Direction) String() string {
	switch d {
	case DirIn:
		return "IN"
	case DirOut:
		return "OUT"
	case DirInOut:
		return "INOUT"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// FailurePolicy selects what the runtime does when a task exhausts its
// retries, mirroring PyCOMPSs' on_failure clause.
type FailurePolicy int

// Failure policies.
const (
	// FailFast aborts the whole workflow (PyCOMPSs default behaviour of
	// stopping on task failure).
	FailFast FailurePolicy = iota
	// Ignore resolves the task's outputs to nil and lets successors run.
	Ignore
	// CancelSuccessors cancels every transitive successor but lets
	// independent branches continue.
	CancelSuccessors
)

func (p FailurePolicy) String() string {
	switch p {
	case FailFast:
		return "FAIL_FAST"
	case Ignore:
		return "IGNORE"
	case CancelSuccessors:
		return "CANCEL_SUCCESSORS"
	default:
		return fmt.Sprintf("FailurePolicy(%d)", int(p))
	}
}

// Constraints expresses the resources a task needs, like the paper's
// @constraint decorator.
type Constraints struct {
	// Cores this task occupies while running; zero means 1.
	Cores int
	// MemoryMB of memory required; advisory for placement.
	MemoryMB int
}

func (c Constraints) cores() int {
	if c.Cores <= 0 {
		return 1
	}
	return c.Cores
}

// TaskFunc is the body of a task. args holds one resolved value per
// declared parameter (IN and INOUT parameters carry the input value, OUT
// parameters carry nil). The returned slice must have exactly the number
// of outputs declared in the task definition.
type TaskFunc func(args []any) ([]any, error)

// TaskDef declares a reusable task, the analogue of a @task-decorated
// Python function.
type TaskDef struct {
	// Name identifies the task; it labels graph nodes and checkpoint
	// records and must be unique within a runtime.
	Name string
	// Fn is the task body.
	Fn TaskFunc
	// Outputs is the number of values Fn returns on success.
	Outputs int
	// Constraints describes resource needs.
	Constraints Constraints
	// OnFailure selects the failure policy once retries are exhausted.
	OnFailure FailurePolicy
	// Retries is how many times a failed execution is retried before the
	// failure policy applies. Retries are separated by capped exponential
	// backoff with jitter (Config.BaseBackoff/MaxBackoff); errors marked
	// Permanent skip the remaining budget.
	Retries int
	// Timeout bounds one execution attempt; zero means no deadline. A
	// timed-out attempt counts as a failed attempt (retryable); the
	// abandoned attempt's result is discarded safely.
	Timeout time.Duration
	// Ephemeral marks a task whose outputs are live in-process values
	// (pointers, handles) that cannot meaningfully be persisted: the
	// checkpointer skips it and it always re-runs on recovery.
	Ephemeral bool
	// Weight is an abstract cost for critical-path analysis (default 1).
	Weight float64
}

// ErrCancelled is reported by futures of tasks cancelled by a
// CancelSuccessors policy or a workflow abort.
var ErrCancelled = errors.New("compss: task cancelled")

// ErrWorkflowFailed is reported by Barrier when a FailFast task failed.
var ErrWorkflowFailed = errors.New("compss: workflow failed")

// ErrTaskTimeout marks an attempt that exceeded its TaskDef.Timeout.
var ErrTaskTimeout = errors.New("compss: task attempt timed out")

// Permanent marks err as non-retryable: the retry loop applies the
// failure policy immediately instead of burning its budget. It is the
// shared marker from internal/chaos, re-exported so task bodies do not
// need to import chaos to classify their own errors.
func Permanent(err error) error { return chaos.Permanent(err) }

// IsPermanent reports whether err carries the Permanent marker anywhere
// in its chain.
func IsPermanent(err error) bool { return chaos.IsPermanent(err) }

// taskState tracks one invocation through its lifecycle.
type taskState int

const (
	statePending taskState = iota
	stateReady
	stateRunning
	stateDone
	stateFailed
	stateCancelled
	stateIgnored
	stateRecovered // restored from checkpoint, not executed
)

func (s taskState) String() string {
	switch s {
	case statePending:
		return "PENDING"
	case stateReady:
		return "READY"
	case stateRunning:
		return "RUNNING"
	case stateDone:
		return "DONE"
	case stateFailed:
		return "FAILED"
	case stateCancelled:
		return "CANCELLED"
	case stateIgnored:
		return "IGNORED"
	case stateRecovered:
		return "RECOVERED"
	default:
		return fmt.Sprintf("taskState(%d)", int(s))
	}
}

// invocation is one node of the running graph.
type invocation struct {
	id      dag.NodeID
	seq     int // deterministic sequence number for checkpointing
	def     *TaskDef
	params  []Param
	outs    []*Future
	state   taskState
	missing int // unresolved dependencies
	deps    map[dag.NodeID]struct{}
	err     error
	node    string // cluster node it ran on, if placed
	started time.Time
	ended   time.Time
}

// Future is the placeholder for a task output. Passing a Future to a
// later invocation as an IN parameter creates a data dependency; calling
// Get blocks until the producing task finishes (synchronization).
type Future struct {
	rt       *Runtime
	producer dag.NodeID
	index    int
	done     chan struct{}
	val      any
	err      error
	key      string
	size     int64
}

// Get blocks until the value is available and returns it. A cancelled or
// failed producer yields a non-nil error; an Ignored failure yields
// (nil, nil) so downstream code can proceed, matching PyCOMPSs semantics
// where ignored failures propagate null objects.
func (f *Future) Get() (any, error) {
	<-f.done
	return f.val, f.err
}

// TryGet returns the value if already resolved without blocking.
func (f *Future) TryGet() (any, bool) {
	select {
	case <-f.done:
		return f.val, true
	default:
		return nil, false
	}
}

// Done reports whether the future has resolved.
func (f *Future) Done() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

func (f *Future) resolve(v any, err error) {
	f.val, f.err = v, err
	close(f.done)
}

// Shared is a named mutable datum managed by the runtime. Unlike a
// Future (single assignment), a Shared value can be modified by a chain
// of INOUT tasks; the runtime serializes writers and orders readers
// against them, exactly as the COMPSs runtime versions its data.
type Shared struct {
	name       string
	mu         sync.Mutex
	val        any
	lastWriter dag.NodeID
	readers    []dag.NodeID // readers since the last write
	version    int
}

// NewShared wraps an initial value for dependency-tracked sharing.
func (r *Runtime) NewShared(name string, initial any) *Shared {
	return &Shared{name: name, val: initial}
}

// Value returns the current value. Call Barrier first for a quiescent
// read.
func (s *Shared) Value() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.val
}

// Version returns how many writes the datum has received.
func (s *Shared) Version() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Param is one argument of an invocation: a value (or Future or Shared)
// plus its declared direction.
type Param struct {
	dir  Direction
	val  any
	key  string // data-locality key, optional
	size int64
}

// In declares a read-only parameter. v may be a literal, a *Future or a
// *Shared.
func In(v any) Param { return Param{dir: DirIn, val: v} }

// InOut declares a read-write parameter; v must be a *Shared.
func InOut(s *Shared) Param { return Param{dir: DirInOut, val: s} }

// OutShared declares a write-only parameter targeting a *Shared.
func OutShared(s *Shared) Param { return Param{dir: DirOut, val: s} }

// WithKey attaches a data-locality key and size to the parameter, used
// by cluster-aware placement.
func (p Param) WithKey(key string, size int64) Param {
	p.key, p.size = key, size
	return p
}

// Config configures a Runtime.
type Config struct {
	// Workers is the number of core slots in the pool; zero means 4.
	Workers int
	// Cluster, when set, enables data-locality placement and transfer
	// accounting against the simulated machine.
	Cluster *cluster.Cluster
	// Checkpointer, when set, records completed tasks and replays them on
	// the next run.
	Checkpointer Checkpointer
	// BaseBackoff is the delay before the first retry of a failed task
	// attempt; each further retry doubles it. Zero means 25ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential retry delay. Zero means 2s.
	MaxBackoff time.Duration
	// Seed drives the backoff jitter; fixed seeds give reproducible
	// retry schedules.
	Seed int64
	// Sleep replaces time.Sleep for backoff and injected latency. Tests
	// install a recorder here so retry timing is asserted without
	// wall-clock waits.
	Sleep func(time.Duration)
	// Injector, when set, is consulted at the chaos sites (task attempt,
	// pre-checkpoint) and may inject faults. Nil means production
	// behaviour.
	Injector chaos.Injector
	// Metrics, when set, receives the runtime's task counters and
	// attempt-duration histogram (compss_* families).
	Metrics *obs.Registry
	// Tracer, when set, records one span per task with one child span
	// per execution attempt (timed-out attempts close with an error
	// status; checkpoint restores appear as recovered spans).
	Tracer *obs.Tracer
}

// Runtime is the COMPSs-like engine: it owns the task graph, the worker
// pool and the data registry, playing the role of the COMPSs master.
type Runtime struct {
	mu        sync.Mutex
	cfg       Config
	defs      map[string]*TaskDef
	graph     *dag.Graph
	inv       map[dag.NodeID]*invocation
	seq       int
	slots     chan struct{}
	acquireMu sync.Mutex
	wg        sync.WaitGroup
	failed    error
	aborted   bool
	crashed   bool // simulated process death: no further checkpoint writes
	rngMu     sync.Mutex
	rng       *rand.Rand
	met       *rtMetrics
	tracer    *obs.Tracer

	trace   []TraceEvent
	tracing bool
}

// TraceEvent records one task execution for later analysis.
type TraceEvent struct {
	Task  string
	ID    dag.NodeID
	State string
	Node  string
}

// NewRuntime starts a runtime with the given configuration.
func NewRuntime(cfg Config) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 25 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	rt := &Runtime{
		cfg:    cfg,
		defs:   make(map[string]*TaskDef),
		graph:  dag.New(),
		inv:    make(map[dag.NodeID]*invocation),
		slots:  make(chan struct{}, cfg.Workers),
		rng:    rand.New(rand.NewSource(cfg.Seed + 1)),
		met:    newRTMetrics(cfg.Metrics),
		tracer: cfg.Tracer,
	}
	for i := 0; i < cfg.Workers; i++ {
		rt.slots <- struct{}{}
	}
	return rt
}

// EnableTracing turns on per-task trace event recording.
func (r *Runtime) EnableTracing() { r.mu.Lock(); r.tracing = true; r.mu.Unlock() }

// Trace returns a copy of recorded trace events.
func (r *Runtime) Trace() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceEvent, len(r.trace))
	copy(out, r.trace)
	return out
}

// Register declares a task definition. Registering two tasks with the
// same name is an error.
func (r *Runtime) Register(def TaskDef) (*TaskDef, error) {
	if def.Name == "" {
		return nil, errors.New("compss: task name required")
	}
	if def.Fn == nil {
		return nil, fmt.Errorf("compss: task %q has no function", def.Name)
	}
	if def.Outputs < 0 {
		return nil, fmt.Errorf("compss: task %q has negative output count", def.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.defs[def.Name]; dup {
		return nil, fmt.Errorf("compss: task %q already registered", def.Name)
	}
	d := def
	r.defs[def.Name] = &d
	return &d, nil
}

// MustRegister is Register that panics on error, for static task tables.
func (r *Runtime) MustRegister(def TaskDef) *TaskDef {
	d, err := r.Register(def)
	if err != nil {
		panic(err)
	}
	return d
}

// Graph returns the live task graph. It grows as tasks are invoked;
// export it after Barrier for the complete picture (Figure 3).
func (r *Runtime) Graph() *dag.Graph { return r.graph }

// Invoke submits one task execution with the given parameters and
// returns one future per declared output. Dependencies are inferred
// from parameter directionality; execution is asynchronous.
func (r *Runtime) Invoke(def *TaskDef, params ...Param) ([]*Future, error) {
	r.mu.Lock()
	if r.aborted {
		r.mu.Unlock()
		return nil, ErrWorkflowFailed
	}
	if _, known := r.defs[def.Name]; !known {
		r.mu.Unlock()
		return nil, fmt.Errorf("compss: task %q not registered", def.Name)
	}

	id := r.graph.AddNode(def.Name, def.Name)
	if def.Weight > 0 {
		r.graph.Node(id).Weight = def.Weight
	}
	r.seq++
	in := &invocation{
		id:     id,
		seq:    r.seq,
		def:    def,
		params: params,
		deps:   make(map[dag.NodeID]struct{}),
	}
	// Dependency inference.
	for _, p := range params {
		switch v := p.val.(type) {
		case *Future:
			if p.dir != DirIn {
				r.mu.Unlock()
				return nil, fmt.Errorf("compss: future parameters must be IN, got %v", p.dir)
			}
			in.deps[v.producer] = struct{}{}
		case *Shared:
			v.mu.Lock()
			switch p.dir {
			case DirIn:
				if v.lastWriter != 0 {
					in.deps[v.lastWriter] = struct{}{}
				}
				v.readers = append(v.readers, id)
			case DirInOut, DirOut:
				if v.lastWriter != 0 {
					in.deps[v.lastWriter] = struct{}{}
				}
				for _, rd := range v.readers {
					if rd != id {
						in.deps[rd] = struct{}{}
					}
				}
				v.readers = v.readers[:0]
				v.lastWriter = id
				v.version++
			}
			v.mu.Unlock()
		}
	}
	delete(in.deps, 0)
	for dep := range in.deps {
		// Edges into finished tasks still document the dataflow (Fig 3).
		if err := r.graph.AddEdge(dep, id); err != nil {
			r.mu.Unlock()
			return nil, err
		}
	}
	// Futures for outputs.
	in.outs = make([]*Future, def.Outputs)
	for i := range in.outs {
		in.outs[i] = &Future{
			rt:       r,
			producer: id,
			index:    i,
			done:     make(chan struct{}),
			key:      fmt.Sprintf("%s#%d.%d", def.Name, in.seq, i),
		}
	}
	r.inv[id] = in

	// Count unresolved dependencies.
	for dep := range in.deps {
		d := r.inv[dep]
		if d == nil {
			continue
		}
		switch d.state {
		case stateDone, stateIgnored, stateRecovered:
			// resolved
		case stateFailed, stateCancelled:
			// dependency already failed: cancel this one immediately
			in.state = stateCancelled
		default:
			in.missing++
		}
	}
	if in.state == stateCancelled {
		r.mu.Unlock()
		r.cancelInvocation(in)
		return in.outs, nil
	}

	// Checkpoint replay. Ephemeral tasks are never recorded; a recovered
	// record with the wrong arity (corrupt or from an older task shape)
	// is ignored and the task re-runs.
	if r.cfg.Checkpointer != nil && !def.Ephemeral {
		if outs, ok := r.cfg.Checkpointer.Lookup(def.Name, in.seq); ok && len(outs) == def.Outputs {
			in.state = stateRecovered
			r.mu.Unlock()
			sp := r.tracer.Start(def.Name,
				obs.Attr{Key: "seq", Value: strconv.Itoa(in.seq)},
				obs.Attr{Key: "state", Value: "recovered"})
			r.finish(in, outs, nil, stateRecovered)
			sp.End()
			return in.outs, nil
		}
	}

	ready := in.missing == 0
	if ready {
		in.state = stateReady
	}
	r.mu.Unlock()
	if ready {
		r.dispatch(in)
	}
	return in.outs, nil
}

// InvokeOne is Invoke for single-output tasks, returning that future.
func (r *Runtime) InvokeOne(def *TaskDef, params ...Param) (*Future, error) {
	outs, err := r.Invoke(def, params...)
	if err != nil {
		return nil, err
	}
	if len(outs) != 1 {
		return nil, fmt.Errorf("compss: task %q has %d outputs, want 1", def.Name, len(outs))
	}
	return outs[0], nil
}

// dispatch hands a ready invocation to the worker pool.
func (r *Runtime) dispatch(in *invocation) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		cores := in.def.Constraints.cores()
		if cores > cap(r.slots) {
			cores = cap(r.slots) // clamp: a task can at most fill the pool
		}
		// Serialize multi-slot acquisition so two wide tasks cannot each
		// grab a partial set of slots and deadlock.
		if cores > 1 {
			r.acquireMu.Lock()
		}
		for i := 0; i < cores; i++ {
			<-r.slots
		}
		if cores > 1 {
			r.acquireMu.Unlock()
		}
		defer func() {
			for i := 0; i < cores; i++ {
				r.slots <- struct{}{}
			}
		}()

		r.mu.Lock()
		if r.aborted || in.state == stateCancelled {
			r.mu.Unlock()
			r.cancelInvocation(in)
			return
		}
		in.state = stateRunning
		in.started = time.Now()
		r.mu.Unlock()

		// Cluster placement and input staging.
		if c := r.cfg.Cluster; c != nil {
			keys := inputKeys(in.params)
			node := c.BestNodeFor(keys)
			in.node = node
			for _, k := range keys {
				_, _, _ = c.Fetch(k, node) // unknown keys are fine: literal args
			}
		}

		args := r.resolveArgs(in)
		var outs []any
		var err error
		// Retry with capped exponential backoff + jitter: an immediate
		// hot retry hammers whatever made the attempt fail (the thundering
		// herd the execution store's backoff also avoids); errors marked Permanent
		// skip the budget because retrying cannot help.
		sp := r.tracer.Start(in.def.Name, obs.Attr{Key: "seq", Value: strconv.Itoa(in.seq)})
		for attempt := 0; ; attempt++ {
			att := sp.Start("attempt", obs.Attr{Key: "attempt", Value: strconv.Itoa(attempt)})
			t0 := time.Now()
			outs, err = r.runAttempt(in, args, attempt)
			r.met.attempt.Observe(time.Since(t0).Seconds())
			if err != nil && errors.Is(err, ErrTaskTimeout) {
				r.met.timedOut.Inc()
			}
			att.EndErr(err)
			if err == nil || attempt >= in.def.Retries || IsPermanent(err) || r.isAborted() {
				break
			}
			r.met.retried.Inc()
			r.sleep(r.backoff(attempt))
		}
		sp.EndErr(err)
		if err != nil && errors.Is(err, chaos.ErrCrash) {
			r.crash(in)
			return
		}
		if err == nil && len(outs) != in.def.Outputs {
			err = fmt.Errorf("compss: task %q returned %d values, declared %d", in.def.Name, len(outs), in.def.Outputs)
		}
		if err == nil {
			if c := r.cfg.Cluster; c != nil && in.node != "" {
				for i, f := range in.outs {
					sz := int64(64)
					_ = i
					_ = c.Place(f.key, in.node, sz)
				}
			}
			if cp := r.cfg.Checkpointer; cp != nil && !in.def.Ephemeral {
				// A Crash fault here models the process dying after the work
				// but before the checkpoint write: the record is lost, the
				// run aborts, and recovery must re-execute this task.
				if inj := r.cfg.Injector; inj != nil {
					if f := inj.Decide(chaos.SiteCheckpoint, in.def.Name, 0); f.Kind == chaos.Crash {
						r.crash(in)
						return
					}
				}
				r.mu.Lock()
				dead := r.crashed
				r.mu.Unlock()
				if !dead {
					_ = cp.Record(in.def.Name, in.seq, outs) // best effort
				}
			}
			r.finish(in, outs, nil, stateDone)
			return
		}
		switch in.def.OnFailure {
		case Ignore:
			r.finish(in, make([]any, in.def.Outputs), nil, stateIgnored)
		case CancelSuccessors:
			r.finish(in, nil, err, stateFailed)
		default: // FailFast
			r.mu.Lock()
			r.failed = fmt.Errorf("%w: task %s: %v", ErrWorkflowFailed, in.def.Name, err)
			r.aborted = true
			r.mu.Unlock()
			r.finish(in, nil, err, stateFailed)
		}
	}()
}

// runSafely executes fn converting panics into errors so one bad task
// cannot take down the runtime.
func runSafely(fn TaskFunc, args []any) (outs []any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("compss: task panicked: %v", p)
		}
	}()
	return fn(args)
}

// runAttempt executes one attempt of an invocation: it applies any
// injected fault, then runs the task body under the per-task deadline.
func (r *Runtime) runAttempt(in *invocation, args []any, attempt int) ([]any, error) {
	fn := in.def.Fn
	if inj := r.cfg.Injector; inj != nil {
		f := inj.Decide(chaos.SiteTask, in.def.Name, attempt)
		switch f.Kind {
		case chaos.Transient, chaos.PermanentKind:
			return nil, f.Error()
		case chaos.Crash:
			// Simulated process death mid-attempt: permanent so the retry
			// loop hands it straight to the crash path.
			return nil, chaos.Permanent(fmt.Errorf("task %s: %w", in.def.Name, chaos.ErrCrash))
		case chaos.PanicKind:
			// Replace the body with a panicking one so the real
			// panic-isolation path (runSafely) is exercised end to end.
			fn = func([]any) ([]any, error) {
				panic(fmt.Sprintf("chaos: injected panic in task %s", in.def.Name))
			}
		case chaos.Latency:
			// Injected latency runs inside the attempt so it counts against
			// the task deadline, like a genuinely slow execution would.
			inner := fn
			delay := f.Delay
			fn = func(a []any) ([]any, error) {
				r.sleep(delay)
				return inner(a)
			}
		}
	}
	if in.def.Timeout <= 0 {
		return runSafely(fn, args)
	}
	type result struct {
		outs []any
		err  error
	}
	// Buffered so an abandoned attempt can always deliver and exit: a
	// timed-out goroutine never leaks blocked on the send.
	ch := make(chan result, 1)
	go func() {
		outs, err := runSafely(fn, args)
		ch <- result{outs, err}
	}()
	timer := time.NewTimer(in.def.Timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.outs, res.err
	case <-timer.C:
		// The attempt keeps running to completion in its goroutine but its
		// result is discarded; a timed-out attempt is a failed attempt.
		return nil, fmt.Errorf("%w: task %s attempt %d exceeded %v", ErrTaskTimeout, in.def.Name, attempt, in.def.Timeout)
	}
}

// backoff returns the delay before retrying a failed attempt:
// min(MaxBackoff, BaseBackoff·2^attempt) scaled by a jitter factor in
// [0.5, 1.5) drawn from the seeded RNG.
func (r *Runtime) backoff(attempt int) time.Duration {
	d := r.cfg.BaseBackoff
	for i := 0; i < attempt && d < r.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > r.cfg.MaxBackoff {
		d = r.cfg.MaxBackoff
	}
	r.rngMu.Lock()
	jitter := 0.5 + r.rng.Float64()
	r.rngMu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// sleep waits for d via the configured Sleep hook (or time.Sleep).
func (r *Runtime) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if r.cfg.Sleep != nil {
		r.cfg.Sleep(d)
		return
	}
	time.Sleep(d)
}

func (r *Runtime) isAborted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.aborted
}

// crash simulates the whole process dying at this point: no further
// checkpoint records are written (the real process would not have
// written them either), every pending task is cancelled, and the
// workflow error carries chaos.ErrCrash so drivers can distinguish a
// crash worth resuming from an ordinary task failure.
func (r *Runtime) crash(in *invocation) {
	r.mu.Lock()
	r.crashed = true
	r.aborted = true
	if r.failed == nil {
		r.failed = fmt.Errorf("%w: %w at task %s", ErrWorkflowFailed, chaos.ErrCrash, in.def.Name)
	}
	var pending []*invocation
	for _, p := range r.inv {
		if p.state == statePending {
			p.state = stateCancelled
			pending = append(pending, p)
		}
	}
	r.mu.Unlock()
	for _, p := range pending {
		r.cancelInvocation(p)
	}
	r.finish(in, nil, chaos.ErrCrash, stateFailed)
}

// resolveArgs materializes parameter values for execution.
func (r *Runtime) resolveArgs(in *invocation) []any {
	args := make([]any, len(in.params))
	for i, p := range in.params {
		switch v := p.val.(type) {
		case *Future:
			val, _ := v.Get() // producer finished: deps were satisfied
			args[i] = val
		case *Shared:
			if p.dir == DirOut {
				args[i] = nil
			} else {
				args[i] = v.Value()
			}
		default:
			args[i] = p.val
		}
	}
	return args
}

// finish resolves outputs, updates shared data, releases dependents.
func (r *Runtime) finish(in *invocation, outs []any, err error, final taskState) {
	r.mu.Lock()
	in.state = final
	in.err = err
	if !in.started.IsZero() && in.ended.IsZero() {
		in.ended = time.Now()
	}
	if r.tracing {
		r.trace = append(r.trace, TraceEvent{Task: in.def.Name, ID: in.id, State: final.String(), Node: in.node})
	}
	r.mu.Unlock()
	switch final {
	case stateDone:
		r.met.succeeded.Inc()
	case stateFailed:
		r.met.failed.Inc()
	case stateIgnored:
		r.met.ignored.Inc()
	case stateRecovered:
		r.met.recovered.Inc()
	}

	// Write back INOUT/OUT shared parameters: convention is that the
	// task's outputs are matched to shared write parameters in order.
	if err == nil {
		oi := 0
		for _, p := range in.params {
			if p.dir == DirInOut || p.dir == DirOut {
				if s, ok := p.val.(*Shared); ok && oi < len(outs) {
					s.mu.Lock()
					s.val = outs[oi]
					s.mu.Unlock()
					oi++
				}
			}
		}
	}
	for i, f := range in.outs {
		switch {
		case err != nil:
			f.resolve(nil, fmt.Errorf("compss: task %s failed: %w", in.def.Name, err))
		case final == stateIgnored:
			f.resolve(nil, nil)
		default:
			f.resolve(outs[i], nil)
		}
	}
	r.releaseDependents(in, err != nil)
}

// cancelInvocation resolves an invocation's futures with ErrCancelled.
func (r *Runtime) cancelInvocation(in *invocation) {
	r.mu.Lock()
	already := in.state == stateCancelled && in.outs != nil && len(in.outs) > 0 && in.outs[0].Done()
	in.state = stateCancelled
	if r.tracing && !already {
		r.trace = append(r.trace, TraceEvent{Task: in.def.Name, ID: in.id, State: stateCancelled.String()})
	}
	r.mu.Unlock()
	if already {
		return
	}
	r.met.cancelled.Inc()
	for _, f := range in.outs {
		if !f.Done() {
			f.resolve(nil, ErrCancelled)
		}
	}
	r.releaseDependents(in, true)
}

// releaseDependents decrements dependency counters of successors. When
// failed is true, successors are cancelled (CancelSuccessors/abort
// propagation) rather than released.
func (r *Runtime) releaseDependents(in *invocation, failed bool) {
	r.mu.Lock()
	var toRun, toCancel []*invocation
	for _, succ := range r.graph.Successors(in.id) {
		s := r.inv[succ]
		if s == nil || s.state != statePending {
			continue
		}
		if failed {
			s.state = stateCancelled
			toCancel = append(toCancel, s)
			continue
		}
		s.missing--
		if s.missing == 0 {
			s.state = stateReady
			toRun = append(toRun, s)
		}
	}
	r.mu.Unlock()
	for _, s := range toCancel {
		r.cancelInvocation(s)
	}
	for _, s := range toRun {
		r.dispatch(s)
	}
}

func inputKeys(params []Param) []string {
	var keys []string
	for _, p := range params {
		if p.dir == DirOut {
			continue
		}
		if f, ok := p.val.(*Future); ok {
			keys = append(keys, f.key)
		} else if p.key != "" {
			keys = append(keys, p.key)
		}
	}
	return keys
}

// Abort cancels the workflow: running tasks finish, every pending task
// is cancelled, and further Invoke calls fail with ErrWorkflowFailed.
// It is the programmatic stop PyCOMPSs exposes for operator
// intervention.
func (r *Runtime) Abort(reason string) {
	r.mu.Lock()
	if r.aborted {
		r.mu.Unlock()
		return
	}
	r.aborted = true
	if r.failed == nil {
		r.failed = fmt.Errorf("%w: aborted: %s", ErrWorkflowFailed, reason)
	}
	var pending []*invocation
	for _, in := range r.inv {
		if in.state == statePending {
			in.state = stateCancelled
			pending = append(pending, in)
		}
	}
	r.mu.Unlock()
	for _, in := range pending {
		r.cancelInvocation(in)
	}
}

// Barrier blocks until all invoked tasks have finished and returns the
// first fatal workflow error, if any (compss_barrier).
func (r *Runtime) Barrier() error {
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// Shutdown waits for completion, flushes the checkpointer and returns
// the final error state.
func (r *Runtime) Shutdown() error {
	err := r.Barrier()
	if cp := r.cfg.Checkpointer; cp != nil {
		if cerr := cp.Flush(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Stats summarizes the execution so far.
type Stats struct {
	Invoked   int
	Done      int
	Failed    int
	Cancelled int
	Ignored   int
	Recovered int
}

// Stats returns current counters. Call after Barrier for final values.
func (r *Runtime) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Stats
	s.Invoked = len(r.inv)
	for _, in := range r.inv {
		switch in.state {
		case stateDone:
			s.Done++
		case stateFailed:
			s.Failed++
		case stateCancelled:
			s.Cancelled++
		case stateIgnored:
			s.Ignored++
		case stateRecovered:
			s.Recovered++
		}
	}
	return s
}
