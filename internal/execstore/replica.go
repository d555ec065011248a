package execstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Handler executes one leased task and returns its output. Handlers
// must be deterministic functions of the task payload for the
// exactly-once guarantee to extend to outputs: a reclaimed task may be
// EXECUTED more than once (the first holder died mid-run), but only one
// execution's output passes the epoch fence, and determinism makes the
// survivor byte-identical to what the dead holder would have produced.
type Handler func(ctx context.Context, t TaskView) (json.RawMessage, error)

// ReplicaConfig parameterizes one executor replica.
type ReplicaConfig struct {
	// ID names the replica in leases and metrics ("replica-1"...).
	ID string
	// Store is the shared execution store the replica pulls from.
	Store *Store
	// Workers is the local execution parallelism (default 4).
	Workers int
	// Handler runs each task.
	Handler Handler
	// Prefetch caps how many leases one acquire batch claims (default
	// Workers): modest prefetch keeps workers busy between fetch loops
	// without hoarding tasks a peer replica could run.
	Prefetch int
	// RenewEvery overrides the lease renewal cadence (default
	// Store LeaseTTL/3).
	RenewEvery time.Duration
}

// Replica is one stateless executor: a fetch loop that leases tasks
// from the shared store, a pool of Workers goroutines fed by one
// buffered channel that runs them, and a renew loop that keeps held
// leases alive at TTL/3. The store is the only queue and owns the retry
// policy: every outcome is reported to it. All durable state lives in
// the store — Kill a replica and nothing is lost: its leases expire,
// the store reclaims the tasks, and a peer replica (or this one after
// restart) re-runs them behind the epoch fence.
type Replica struct {
	cfg    ReplicaConfig
	ctx    context.Context // fetch and renew loops
	cancel context.CancelFunc
	// runCtx parents every local task's context; stopRun cancels the
	// handlers still running when the replica is killed or a drain
	// times out.
	runCtx  context.Context
	stopRun context.CancelFunc
	wg      sync.WaitGroup // fetch and renew loops
	pool    sync.WaitGroup // workers
	// work carries dispatched tasks to the workers. Its buffer holds
	// Workers+Prefetch, the most capacity() ever lets be in flight, so
	// a dispatch never blocks and is never refused.
	work      chan *localJob
	closeWork sync.Once
	// inflight counts tasks dispatched and not yet returned by a worker.
	inflight atomic.Int64

	mu     sync.Mutex
	killed bool
	local  map[string]*localJob // taskID -> local execution
}

// localJob is one held lease and the cancel func of its local run.
type localJob struct {
	lease  Lease
	ctx    context.Context
	cancel context.CancelFunc
}

// NewReplica starts an executor replica against the store.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Store == nil {
		return nil, errors.New("execstore: replica needs a store")
	}
	if cfg.Handler == nil {
		return nil, errors.New("execstore: replica needs a handler")
	}
	if cfg.ID == "" {
		return nil, errors.New("execstore: replica needs an id")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Prefetch <= 0 {
		cfg.Prefetch = cfg.Workers
	}
	if cfg.RenewEvery <= 0 {
		cfg.RenewEvery = cfg.Store.cfg.LeaseTTL / 3
		if cfg.RenewEvery < time.Millisecond {
			cfg.RenewEvery = time.Millisecond
		}
	}
	r := newReplica(cfg)
	cfg.Store.RegisterReplica(cfg.ID, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		r.pool.Add(1)
		go r.worker()
	}
	r.wg.Add(2)
	go r.fetchLoop()
	go r.renewLoop()
	return r, nil
}

// newReplica builds a replica with no goroutines started.
func newReplica(cfg ReplicaConfig) *Replica {
	r := &Replica{
		cfg:   cfg,
		work:  make(chan *localJob, cfg.Workers+cfg.Prefetch),
		local: make(map[string]*localJob),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	r.runCtx, r.stopRun = context.WithCancel(context.Background())
	return r
}

// ID returns the replica's name.
func (r *Replica) ID() string { return r.cfg.ID }

// fetchLoop pulls leases from the store whenever local workers have
// capacity and hands each to the pool.
func (r *Replica) fetchLoop() {
	defer r.wg.Done()
	for {
		want := r.capacity()
		if want == 0 {
			// Local pool saturated; let a running task finish.
			select {
			case <-r.ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
			continue
		}
		leases, err := r.cfg.Store.AwaitAcquire(r.ctx, r.cfg.ID, want)
		if err != nil {
			return // ctx canceled or store closed
		}
		for _, l := range leases {
			r.dispatch(l)
		}
	}
}

// capacity is how many more tasks the local pool can take.
func (r *Replica) capacity() int {
	free := r.cfg.Workers + r.cfg.Prefetch - int(r.inflight.Load())
	return max(0, min(free, r.cfg.Prefetch))
}

// dispatch hands one leased task to the pool under its own cancel func.
func (r *Replica) dispatch(l Lease) {
	ctx, cancel := context.WithCancel(r.runCtx)
	j := &localJob{lease: l, ctx: ctx, cancel: cancel}
	r.inflight.Add(1)
	r.mu.Lock()
	r.local[l.TaskID] = j
	r.mu.Unlock()
	r.work <- j
}

// worker runs dispatched tasks until the work channel closes.
func (r *Replica) worker() {
	defer r.pool.Done()
	for j := range r.work {
		r.run(j)
		r.inflight.Add(-1)
	}
}

// run executes one task and reports the outcome to the store. A task
// whose context is already canceled is skipped: cancelLocal has
// reported it, or the replica is stopping and its lease will expire. A
// killed replica reports nothing either; the store reclaims the task.
func (r *Replica) run(j *localJob) {
	defer j.cancel()
	skip := j.ctx.Err() != nil
	var out json.RawMessage
	var err error
	if !skip {
		out, err = r.handle(j)
	}
	r.mu.Lock()
	dead := r.killed
	if r.local[j.lease.TaskID] == j {
		delete(r.local, j.lease.TaskID)
	}
	r.mu.Unlock()
	switch {
	case skip || dead:
	case err != nil:
		r.cfg.Store.Fail(j.lease, err)
	default:
		r.cfg.Store.Complete(j.lease, out)
	}
}

// handle calls the Handler, turning a panic into a failed attempt so
// one bad task cannot take the process down.
func (r *Replica) handle(j *localJob) (out json.RawMessage, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("execstore: handler panicked: %v", p)
		}
	}()
	return r.cfg.Handler(j.ctx, j.lease.Task)
}

// renewLoop extends held leases at the configured cadence and cancels
// local jobs whose store-side task got a cancel request.
func (r *Replica) renewLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.RenewEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-tick.C:
			_, canceled := r.cfg.Store.Renew(r.cfg.ID)
			for _, id := range canceled {
				r.cancelLocal(id)
			}
		}
	}
}

// cancelLocal cancels the local job executing the given task, then
// fails the lease back as canceled. A job still waiting on the work
// channel is skipped by its worker, so this Fail is its only report; a
// running one may report too, and whichever lands first wins while the
// other is fenced as a no-op — either way the task finalizes exactly
// once.
func (r *Replica) cancelLocal(taskID string) {
	r.mu.Lock()
	j, ok := r.local[taskID]
	r.mu.Unlock()
	if !ok {
		return
	}
	j.cancel()
	r.cfg.Store.Fail(j.lease, context.Canceled)
}

// Drain gracefully stops the replica: no new leases are fetched, and
// every lease already fetched — waiting or running — runs to completion
// and reports. The fetch loop is joined before the work channel closes.
// If work is still running when ctx expires, Drain cancels the running
// handlers, waits for them to return and reports ctx.Err().
func (r *Replica) Drain(ctx context.Context) error {
	r.cancel()
	r.wg.Wait()
	r.closeWork.Do(func() { close(r.work) })
	done := make(chan struct{})
	go func() {
		r.pool.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		r.stopRun()
		<-done
	}
	r.cfg.Store.DeregisterReplica(r.cfg.ID)
	r.stopRun()
	return err
}

// Kill simulates a crash or partition: loops stop, running handlers
// are canceled, and nothing is reported to the store — held leases
// simply stop being renewed and expire, at which point the store
// reclaims the tasks for other replicas. This is the chaos entry point.
func (r *Replica) Kill() {
	r.mu.Lock()
	if r.killed {
		r.mu.Unlock()
		return
	}
	r.killed = true
	r.mu.Unlock()
	r.cancel()
	r.stopRun()
	r.wg.Wait()
	r.closeWork.Do(func() { close(r.work) })
	r.pool.Wait()
}
