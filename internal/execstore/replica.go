package execstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/execq"
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
// from the shared store, a local execq worker pool that runs them, and
// a renew loop that keeps held leases alive at TTL/3. All durable state
// lives in the store — Kill a replica and nothing is lost: its leases
// expire, the store reclaims the tasks, and a peer replica (or this one
// after restart) re-runs them behind the epoch fence.
type Replica struct {
	cfg    ReplicaConfig
	q      *execq.Queue
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// fetched closes when the fetch loop has returned: every lease it
	// acquired has been handed to the local queue or given back.
	fetched chan struct{}

	mu     sync.Mutex
	killed bool
	local  map[string]localJob // taskID -> local execution
}

// localJob ties a held lease to the execq job running it.
type localJob struct {
	jobID string
	lease Lease
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
	q, err := execq.New(execq.Config{
		Workers: cfg.Workers,
		// Local depth = 2×prefetch: enough headroom that a fetched batch
		// always fits (the fetch loop gates on local idle capacity).
		QueueDepth: 2 * cfg.Prefetch,
	})
	if err != nil {
		return nil, err
	}
	r := &Replica{cfg: cfg, q: q, local: make(map[string]localJob), fetched: make(chan struct{})}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	cfg.Store.RegisterReplica(cfg.ID, cfg.Workers)
	r.wg.Add(2)
	go r.fetchLoop()
	go r.renewLoop()
	return r, nil
}

// ID returns the replica's name.
func (r *Replica) ID() string { return r.cfg.ID }

// fetchLoop pulls leases from the store whenever local workers have
// capacity and hands each to the local queue as a Run closure.
func (r *Replica) fetchLoop() {
	defer r.wg.Done()
	defer close(r.fetched)
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
	st := r.q.Stats()
	free := r.cfg.Workers + r.cfg.Prefetch - st.Running - st.Depth
	if free < 0 {
		free = 0
	}
	if free > r.cfg.Prefetch {
		free = r.cfg.Prefetch
	}
	return free
}

// dispatch runs one leased task on the local queue. The closure reports
// the outcome to the STORE, never to execq: retry policy is global
// (task.Retries, store backoff), so the local job always "succeeds"
// from execq's perspective. A killed replica reports nothing — the
// lease expires and the store reclaims the task.
func (r *Replica) dispatch(l Lease) {
	lease := l
	jobID := fmt.Sprintf("%s.%s.e%d", r.cfg.ID, lease.TaskID, lease.Epoch)
	r.mu.Lock()
	r.local[lease.TaskID] = localJob{jobID: jobID, lease: lease}
	r.mu.Unlock()
	_, err := r.q.Submit(execq.Job{
		ID:        jobID,
		Principal: lease.Task.Tenant,
		Run: func(ctx context.Context) error {
			out, herr := r.cfg.Handler(ctx, lease.Task)
			r.mu.Lock()
			dead := r.killed
			delete(r.local, lease.TaskID)
			r.mu.Unlock()
			if dead {
				return nil // abandoned: say nothing, let the lease expire
			}
			if herr != nil {
				r.cfg.Store.Fail(lease, herr)
				return nil
			}
			r.cfg.Store.Complete(lease, out)
			return nil
		},
	})
	if err != nil {
		// The local queue refused the job (it is closing): the task never
		// ran, so give the lease back rather than fail an attempt. A
		// killed replica says nothing; its lease expires.
		r.mu.Lock()
		delete(r.local, lease.TaskID)
		dead := r.killed
		r.mu.Unlock()
		if !dead {
			r.cfg.Store.Release(lease)
		}
	}
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
				// Cancel the local run; its Fail(ctx.Err()) finalizes
				// the task as CANCELED in the store.
				r.cancelLocal(id)
			}
		}
	}
}

// cancelLocal cancels the local job executing the given task, then
// fails the lease back as canceled. If the job was still queued its Run
// closure never fires, so this Fail is the only report; if it was
// running, whichever report lands first wins and the other is fenced as
// a no-op — either way the task finalizes exactly once.
func (r *Replica) cancelLocal(taskID string) {
	r.mu.Lock()
	lj, ok := r.local[taskID]
	r.mu.Unlock()
	if !ok {
		return
	}
	r.q.Cancel(lj.jobID)
	r.cfg.Store.Fail(lj.lease, context.Canceled)
}

// Drain gracefully stops the replica: no new leases are fetched, and
// every lease already fetched — queued or running — runs to completion
// and reports. The fetch loop is stopped and joined before the local
// queue drains, so no lease it holds can meet a closing queue.
func (r *Replica) Drain(ctx context.Context) error {
	r.cancel()
	<-r.fetched
	err := r.q.Drain(ctx)
	r.wg.Wait()
	r.cfg.Store.DeregisterReplica(r.cfg.ID)
	r.q.Close()
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
	r.q.Close() // cancels running contexts; closures see killed and stay silent
	r.wg.Wait()
}
