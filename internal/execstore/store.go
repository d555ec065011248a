// Package execstore is the shared execution store behind the HPCWaaS
// control plane: the one queue every hpcwaas.Frontend submits to and
// every executor Replica leases from, whether one replica runs in the
// process or N stateless ones share the store. Tasks are submitted
// once, claimed by replicas under epoch-fenced leases, and completed
// exactly once — a replica that crashes or partitions simply stops
// renewing, its leases expire, its tasks are reclaimed for other
// replicas, and any completion it later delivers under the stale lease
// is fenced out by the epoch token (the fencing-token pattern; Merlin's producer/consumer task server is
// the scale exemplar, Peterson et al. 2019).
//
// Three control-plane policies live here because they must be global to
// be meaningful:
//
//   - Weighted-deficit fair-share dispatch across tenants (fairshare.go)
//     replaces FIFO-within-priority: one heavy tenant can no longer
//     starve thousands of small ones, and the starvation bound is an
//     explicit function of the configured weights (StarvationBound).
//   - Cost-based admission (cost.go): every task kind's estimated cost
//     comes from the obs histogram of its past runs; Submit projects
//     the backlog's total cost onto the live replica capacity and sheds
//     with a typed reason + Retry-After once the estimated wait passes
//     the configured bound — not just a queue-depth cutoff.
//   - Epoch-fenced leases with a chaos injection site (execstore.lease)
//     so lease expiry and clock skew are first-class test inputs.
//
// The store is in-process (replicas share the *Store) and optionally
// file-backed: a JSON-lines journal with size-triggered compaction
// recovers pending work after a store crash (torn or corrupt lines
// anywhere in the file are skipped and counted, never fatal).
package execstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
)

// State is the lifecycle of one task in the store.
type State string

// Task states. PENDING tasks wait for a replica to lease them; LEASED
// tasks are held by a replica under an epoch fence; DONE, FAILED and
// CANCELED are terminal and retained up to the retention bound.
const (
	StatePending  State = "PENDING"
	StateLeased   State = "LEASED"
	StateDone     State = "DONE"
	StateFailed   State = "FAILED"
	StateCanceled State = "CANCELED"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Task is one unit of work submitted to the store.
type Task struct {
	// ID names the task; empty means the store assigns "task-N".
	ID string
	// Tenant is the principal the task is accounted (and fair-shared)
	// against.
	Tenant string
	// Kind is the workflow type; it keys the cost model.
	Kind string
	// Priority orders dispatch within the tenant's own queue (higher
	// first). Across tenants, fair share decides — priority is a local
	// preference, not a global starvation lever.
	Priority int
	// Payload is the opaque task description.
	Payload json.RawMessage
	// Retries is how many failed attempts are re-queued before the task
	// is FAILED (lease expiries reclaim without burning the budget).
	Retries int
}

// TaskView is a race-free snapshot of a task's state.
type TaskView struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant,omitempty"`
	Kind      string          `json:"kind,omitempty"`
	Priority  int             `json:"priority,omitempty"`
	Payload   json.RawMessage `json:"payload,omitempty"`
	State     State           `json:"state"`
	Attempt   int             `json:"attempt"`
	Epoch     uint64          `json:"epoch,omitempty"`
	Holder    string          `json:"holder,omitempty"`
	Output    json.RawMessage `json:"output,omitempty"`
	Err       string          `json:"error,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Started   time.Time       `json:"started,omitzero"`
	Finished  time.Time       `json:"finished,omitzero"`
}

// Lease is a replica's fenced claim on one task. The Epoch is the
// fencing token: Complete and Fail are rejected with ErrFenced unless
// it matches the task's current epoch, so a holder whose lease expired
// (crash, partition, skewed clock) cannot corrupt a reassigned task.
type Lease struct {
	TaskID string
	Epoch  uint64
	Task   TaskView
}

// epochRestartGap is added to the highest journaled epoch on recovery;
// it upper-bounds how many unjournaled epoch bumps (acquires, reclaims)
// could plausibly have happened after the last journaled terminal state.
const epochRestartGap = 1 << 16

// Store errors.
var (
	ErrClosed      = errors.New("execstore: store closed")
	ErrUnknownTask = errors.New("execstore: unknown task")
	ErrDuplicateID = errors.New("execstore: duplicate task id")
	// ErrFenced rejects a completion or failure delivered under a stale
	// lease epoch: the task was reclaimed and possibly re-leased since.
	ErrFenced = errors.New("execstore: stale lease fenced out")
	// ErrTerminal rejects cancelling an already-finished task.
	ErrTerminal = errors.New("execstore: task already terminal")
)

// ShedReason is the taxonomy of admission rejections (DESIGN.md §13).
type ShedReason string

// Shed reasons. Tenant-caused reasons map to HTTP 429, capacity-caused
// ones to 503 (see ShedError.TenantCaused).
const (
	// ShedDepth: the global pending bound is reached.
	ShedDepth ShedReason = "depth"
	// ShedBacklogCost: the cost-estimated wait for new work exceeds the
	// configured MaxEstimatedWait.
	ShedBacklogCost ShedReason = "backlog-cost"
	// ShedTenantQuota: the tenant's live-task quota is exhausted.
	ShedTenantQuota ShedReason = "tenant-quota"
	// ShedTenantRate: the tenant's token-bucket rate is exhausted.
	ShedTenantRate ShedReason = "tenant-rate"
	// ShedDraining: the store is draining for shutdown.
	ShedDraining ShedReason = "draining"
)

// ShedError is a typed admission rejection: the reason says what was
// exhausted, RetryAfter when a retry is worth attempting, and
// EstimatedWait (for backlog-cost sheds) what completion wait the cost
// model projected.
type ShedError struct {
	Reason        ShedReason
	RetryAfter    time.Duration
	EstimatedWait time.Duration
}

func (e *ShedError) Error() string {
	if e.Reason == ShedBacklogCost {
		return fmt.Sprintf("execstore: shed (%s): estimated wait %s (retry after %s)",
			e.Reason, e.EstimatedWait.Round(time.Millisecond), e.RetryAfter.Round(time.Millisecond))
	}
	return fmt.Sprintf("execstore: shed (%s) (retry after %s)", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// TenantCaused reports whether the rejection is attributable to the
// submitting tenant (quota/rate: fix your own usage, HTTP 429) rather
// than to global capacity (depth/backlog/draining: the service is the
// bottleneck, HTTP 503).
func (e *ShedError) TenantCaused() bool {
	return e.Reason == ShedTenantQuota || e.Reason == ShedTenantRate
}

// AsShed extracts a ShedError from an admission error chain.
func AsShed(err error) (*ShedError, bool) {
	var se *ShedError
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}

// Config parameterizes a Store. Zero values get defaults from Open.
type Config struct {
	// MaxPending bounds tasks waiting for a lease (default 4096).
	MaxPending int
	// PerTenantLimit bounds one tenant's live (pending+leased) tasks;
	// 0 disables the quota.
	PerTenantLimit int
	// RatePerSec/Burst token-bucket rate limit per tenant (0 disables).
	// The bucket is store-global, so the limit holds across all API
	// replicas — per-replica buckets would multiply the budget by N.
	RatePerSec float64
	Burst      int
	// MaxEstimatedWait enables cost-based shedding: Submit rejects with
	// ShedBacklogCost once the backlog's estimated completion wait
	// (cost model × live replica capacity) would exceed it. 0 disables.
	MaxEstimatedWait time.Duration
	// DefaultCostSeconds seeds the cost model before any run of a task
	// kind has been observed (default 50ms).
	DefaultCostSeconds float64
	// Quantum is the deficit round-robin quantum in normalized cost
	// units (default 1: one mean-cost task per tenant per round).
	Quantum float64
	// LeaseTTL is how long a lease lives without renewal (default 3s).
	LeaseTTL time.Duration
	// SweepEvery is the expiry/backoff sweep cadence (default
	// LeaseTTL/4, floor 1ms).
	SweepEvery time.Duration
	// BaseBackoff/MaxBackoff delay re-dispatch of a transiently failed
	// task: min(Max, Base<<(attempt-1)) (defaults 50ms / 5s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Retention bounds retained terminal task records (default 4096).
	Retention int
	// JournalPath, when set, persists tasks as JSON lines; Open replays
	// it and re-queues every non-terminal task.
	JournalPath string
	// JournalMaxBytes triggers size-based journal compaction (default
	// 1<<20; negative disables).
	JournalMaxBytes int64
	// Metrics receives the store's execstore_* instruments; nil keeps
	// them private to Stats().
	Metrics *obs.Registry
	// Injector, when non-nil, is consulted at chaos.SiteLease for every
	// held lease during expiry sweeps (force-expiry = slow-clock holder,
	// latency = fast-clock holder).
	Injector chaos.Injector

	// nowFn overrides the clock in tests.
	nowFn func() time.Time
}

// task is the store's mutable record of one submission.
type task struct {
	Task
	state       State
	attempt     int
	epoch       uint64
	holder      string
	deadline    time.Time // lease expiry
	notBefore   time.Time // retry backoff gate
	cancelReq   bool
	costUnits   float64 // normalized DRR charge
	costSeconds float64 // estimated seconds, for shed accounting
	output      json.RawMessage
	errMsg      string
	seq         uint64
	hidx        int // index in the tenant heap, -1 when not pending
	submitted   time.Time
	enqueued    time.Time // last (re-)queue, for wait latency
	started     time.Time
	finished    time.Time
}

func (t *task) view() TaskView {
	return TaskView{
		ID:        t.ID,
		Tenant:    t.Tenant,
		Kind:      t.Kind,
		Priority:  t.Priority,
		Payload:   t.Payload,
		State:     t.state,
		Attempt:   t.attempt,
		Epoch:     t.epoch,
		Holder:    t.holder,
		Output:    t.output,
		Err:       t.errMsg,
		Submitted: t.submitted,
		Started:   t.started,
		Finished:  t.finished,
	}
}

// bucket is one tenant's token bucket (store-global across replicas).
type bucket struct {
	tokens float64
	last   time.Time
}

// replicaInfo tracks one registered executor replica for capacity
// estimation. A replica that stops acquiring/renewing ages out of the
// live-capacity window on its own.
type replicaInfo struct {
	slots int
	seen  time.Time
}

// Store is the shared, lease-fenced execution store. Create with Open.
type Store struct {
	cfg Config

	mu           sync.Mutex
	cond         *sync.Cond
	tasks        map[string]*task
	leasedSet    map[string]*task
	tenants      map[string]*tenantQ
	ring         []*tenantQ
	ringIdx      int
	termOrder    []string
	pending      int
	backlogSecs  float64
	epoch        uint64
	seq          uint64
	nextID       uint64
	highAutoID   uint64
	replicas     map[string]*replicaInfo
	draining     bool
	closed       bool
	journal      *journal
	compactFloor int64
	met          *smetrics
	cost         *costModel

	stopSweep chan struct{}
	sweepDone chan struct{}
}

// Open validates cfg, replays the journal (if configured), starts the
// lease sweeper and returns a live store.
func Open(cfg Config) (*Store, error) {
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4096
	}
	if cfg.RatePerSec > 0 && cfg.Burst <= 0 {
		cfg.Burst = int(math.Ceil(cfg.RatePerSec))
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	if cfg.DefaultCostSeconds <= 0 {
		cfg.DefaultCostSeconds = 0.05
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 1
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = cfg.LeaseTTL / 4
		if cfg.SweepEvery < time.Millisecond {
			cfg.SweepEvery = time.Millisecond
		}
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 4096
	}
	if cfg.JournalMaxBytes == 0 {
		cfg.JournalMaxBytes = 1 << 20
	}
	if cfg.nowFn == nil {
		cfg.nowFn = time.Now
	}
	s := &Store{
		cfg:       cfg,
		tasks:     make(map[string]*task),
		leasedSet: make(map[string]*task),
		tenants:   make(map[string]*tenantQ),
		replicas:  make(map[string]*replicaInfo),
		met:       newSMetrics(cfg.Metrics),
		cost:      newCostModel(cfg.Metrics, cfg.DefaultCostSeconds),
		stopSweep: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.registerGauges(cfg.Metrics)

	if cfg.JournalPath != "" {
		pending, maxEpoch, skipped, err := replayJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		s.met.journalSkipped.Add(float64(skipped))
		// Only terminal records carry epochs, but acquires and reclaims
		// (not journaled) kept bumping the counter before the crash: a
		// straggler may hold a lease epoch above maxEpoch. Resume with a
		// generous gap so every pre-crash epoch is provably stale.
		s.epoch = maxEpoch + epochRestartGap
		s.journal, err = resetJournal(cfg.JournalPath, pending)
		if err != nil {
			return nil, err
		}
		now := s.now()
		for _, t := range pending {
			s.mu.Lock()
			// Resume the auto-ID sequence past recovered IDs so new
			// submissions cannot collide with them.
			var n uint64
			if _, err := fmt.Sscanf(t.ID, "task-%d", &n); err == nil && n > s.nextID {
				s.nextID = n
				s.highAutoID = n
			}
			if _, dup := s.tasks[t.ID]; !dup {
				s.admitLocked(t, now)
				s.met.recovered.Inc()
			}
			s.mu.Unlock()
		}
	}

	go s.sweeper()
	return s, nil
}

func (s *Store) now() time.Time { return s.cfg.nowFn() }

// SetWeight assigns a tenant's fair-share weight (default 1). Weights
// are clamped to [0.01, 1000] and take effect on the next dispatch
// round; they are configuration, not journaled state.
func (s *Store) SetWeight(tenant string, w float64) {
	w = math.Max(0.01, math.Min(1000, w))
	s.mu.Lock()
	s.tenantLocked(tenant).weight = w
	s.mu.Unlock()
}

// Submit admits a task or sheds it with a typed *ShedError (depth,
// backlog-cost, tenant-quota, tenant-rate, draining) carrying a
// Retry-After hint. Admission is where cost-based load shedding lives:
// the task's estimated cost (obs histograms of past runs of its Kind)
// is projected onto the live replica capacity before acceptance.
func (s *Store) Submit(t Task) (TaskView, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return TaskView{}, ErrClosed
	}
	now := s.now()
	if s.draining {
		s.met.shedFor(ShedDraining).Inc()
		s.mu.Unlock()
		return TaskView{}, &ShedError{Reason: ShedDraining, RetryAfter: time.Second}
	}
	if s.pending >= s.cfg.MaxPending {
		s.met.shedFor(ShedDepth).Inc()
		hint := s.drainHintLocked(now)
		s.mu.Unlock()
		return TaskView{}, &ShedError{Reason: ShedDepth, RetryAfter: hint}
	}
	tq := s.tenantLocked(t.Tenant)
	if s.cfg.PerTenantLimit > 0 && tq.live >= s.cfg.PerTenantLimit {
		s.met.shedFor(ShedTenantQuota).Inc()
		hint := s.drainHintLocked(now)
		s.mu.Unlock()
		return TaskView{}, &ShedError{Reason: ShedTenantQuota, RetryAfter: hint}
	}
	if s.cfg.RatePerSec > 0 {
		if wait := s.takeTokenLocked(tq, now); wait > 0 {
			s.met.shedFor(ShedTenantRate).Inc()
			s.mu.Unlock()
			return TaskView{}, &ShedError{Reason: ShedTenantRate, RetryAfter: wait}
		}
	}
	if s.cfg.MaxEstimatedWait > 0 {
		cost := s.cost.estimate(t.Kind)
		projected := s.estWaitLocked(now, s.backlogSecs+cost)
		if projected > s.cfg.MaxEstimatedWait {
			s.met.shedFor(ShedBacklogCost).Inc()
			hint := projected - s.cfg.MaxEstimatedWait
			if hint < time.Millisecond {
				hint = time.Millisecond
			}
			s.mu.Unlock()
			return TaskView{}, &ShedError{Reason: ShedBacklogCost, RetryAfter: hint, EstimatedWait: projected}
		}
	}
	if t.ID == "" {
		s.nextID++
		t.ID = fmt.Sprintf("task-%d", s.nextID)
		s.highAutoID = s.nextID
	}
	if _, dup := s.tasks[t.ID]; dup {
		s.mu.Unlock()
		return TaskView{}, fmt.Errorf("%w: %s", ErrDuplicateID, t.ID)
	}
	it := s.admitLocked(t, now)
	s.met.submitted.Inc()
	if s.journal != nil {
		s.journal.append(submitRecord(t, now))
		s.maybeCompactLocked()
	}
	view := it.view()
	s.mu.Unlock()
	return view, nil
}

// admitLocked inserts a pending task into its tenant queue.
func (s *Store) admitLocked(t Task, now time.Time) *task {
	s.seq++
	it := &task{
		Task:        t,
		state:       StatePending,
		seq:         s.seq,
		hidx:        -1,
		costUnits:   s.cost.normalized(t.Kind),
		costSeconds: s.cost.estimate(t.Kind),
		submitted:   now,
		enqueued:    now,
		notBefore:   now,
	}
	s.tasks[t.ID] = it
	tq := s.tenantLocked(t.Tenant)
	tq.live++
	s.queuePendingLocked(tq, it)
	s.pending++
	s.backlogSecs += it.costSeconds
	s.cond.Broadcast()
	return it
}

// takeTokenLocked consumes one token from the tenant's bucket or
// returns the actual next-token wait.
func (s *Store) takeTokenLocked(tq *tenantQ, now time.Time) time.Duration {
	b := &tq.bucket
	if b.last.IsZero() {
		b.tokens = float64(s.cfg.Burst)
	} else {
		b.tokens = math.Min(float64(s.cfg.Burst), b.tokens+now.Sub(b.last).Seconds()*s.cfg.RatePerSec)
	}
	b.last = now
	if b.tokens >= 1-1e-9 {
		b.tokens = math.Max(0, b.tokens-1)
		return 0
	}
	wait := time.Duration(math.Ceil((1 - b.tokens) / s.cfg.RatePerSec * float64(time.Second)))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait
}

// serviceSlotsLocked sums the worker slots of replicas seen recently
// enough to be considered live (within 2 lease TTLs).
func (s *Store) serviceSlotsLocked(now time.Time) int {
	window := 2 * s.cfg.LeaseTTL
	slots := 0
	for id, r := range s.replicas {
		if now.Sub(r.seen) <= window {
			slots += r.slots
		} else {
			delete(s.replicas, id)
		}
	}
	if slots <= 0 {
		slots = 1
	}
	return slots
}

// estWaitLocked projects a backlog of estimated cost-seconds onto the
// live replica capacity.
func (s *Store) estWaitLocked(now time.Time, backlogSeconds float64) time.Duration {
	return time.Duration(backlogSeconds / float64(s.serviceSlotsLocked(now)) * float64(time.Second))
}

// drainHintLocked estimates the time for one slot-sized unit of work to
// drain: the mean task cost over the live capacity.
func (s *Store) drainHintLocked(now time.Time) time.Duration {
	d := time.Duration(s.cost.globalMean() / float64(s.serviceSlotsLocked(now)) * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// RegisterReplica announces an executor replica and its worker-slot
// count to the capacity model. Acquire and Renew refresh its liveness;
// a silent replica ages out after 2 lease TTLs.
func (s *Store) RegisterReplica(id string, slots int) {
	if slots < 1 {
		slots = 1
	}
	s.mu.Lock()
	s.replicas[id] = &replicaInfo{slots: slots, seen: s.now()}
	s.mu.Unlock()
}

// DeregisterReplica removes a replica from the capacity model (graceful
// shutdown; crashed replicas age out instead).
func (s *Store) DeregisterReplica(id string) {
	s.mu.Lock()
	delete(s.replicas, id)
	s.mu.Unlock()
}

func (s *Store) touchReplicaLocked(id string, now time.Time) {
	if r, ok := s.replicas[id]; ok {
		r.seen = now
	} else {
		s.replicas[id] = &replicaInfo{slots: 1, seen: now}
	}
}

// TryAcquire claims up to max pending tasks for the replica under fresh
// lease epochs, without blocking. Dispatch order is weighted-deficit
// fair share across tenants.
func (s *Store) TryAcquire(replica string, max int) []Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	now := s.now()
	s.touchReplicaLocked(replica, now)
	s.expireLocked(now)
	return s.acquireLocked(replica, max, now)
}

// AwaitAcquire blocks until at least one task is claimable (or ctx is
// done / the store closes), then claims up to max like TryAcquire.
// Draining stores still hand out leases: replicas drain the backlog.
func (s *Store) AwaitAcquire(ctx context.Context, replica string, max int) ([]Lease, error) {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		case <-stop:
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		now := s.now()
		s.touchReplicaLocked(replica, now)
		s.expireLocked(now)
		if leases := s.acquireLocked(replica, max, now); len(leases) > 0 {
			return leases, nil
		}
		s.cond.Wait()
	}
}

// acquireLocked claims up to max dispatchable tasks under new epochs.
func (s *Store) acquireLocked(replica string, max int, now time.Time) []Lease {
	var leases []Lease
	for len(leases) < max {
		t := s.nextDispatchLocked(now)
		if t == nil {
			break
		}
		s.pending--
		s.epoch++
		t.epoch = s.epoch
		t.state = StateLeased
		t.holder = replica
		t.attempt++
		t.deadline = now.Add(s.cfg.LeaseTTL)
		t.started = now
		s.leasedSet[t.ID] = t
		s.met.acquired.Inc()
		s.met.wait.Observe(now.Sub(t.enqueued).Seconds())
		leases = append(leases, Lease{TaskID: t.ID, Epoch: t.epoch, Task: t.view()})
	}
	return leases
}

// Renew extends every lease the replica still holds and reports which
// task IDs remain held and which of those have a pending cancel request
// (the replica should stop executing them; their eventual Fail
// finalizes as CANCELED).
func (s *Store) Renew(replica string) (held, canceled []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	s.touchReplicaLocked(replica, now)
	for id, t := range s.leasedSet {
		if t.holder != replica {
			continue
		}
		t.deadline = now.Add(s.cfg.LeaseTTL)
		held = append(held, id)
		if t.cancelReq {
			canceled = append(canceled, id)
		}
	}
	return held, canceled
}

// Complete records a task's output under the lease fence: exactly one
// completion per task can ever succeed, and it must carry the current
// epoch. Stale holders get ErrFenced and their output is discarded.
func (s *Store) Complete(l Lease, output json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.heldLocked(l)
	if err != nil {
		return err
	}
	t.output = output
	now := s.now()
	s.cost.observe(t.Kind, now.Sub(t.started).Seconds())
	s.finalizeLocked(t, StateDone, nil, now)
	return nil
}

// Fail reports a failed attempt under the lease fence. Transient
// failures with retry budget left re-queue the task (with backoff);
// permanent failures (chaos.Permanent) and exhausted budgets finalize
// FAILED; a pending cancel request finalizes CANCELED.
func (s *Store) Fail(l Lease, cause error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.heldLocked(l)
	if err != nil {
		return err
	}
	now := s.now()
	if cause == nil {
		cause = errors.New("execstore: failed")
	}
	switch {
	case t.cancelReq || errors.Is(cause, context.Canceled):
		s.finalizeLocked(t, StateCanceled, cause, now)
	case !chaos.IsPermanent(cause) && t.attempt <= t.Retries:
		t.errMsg = cause.Error()
		s.met.retried.Inc()
		s.requeueLocked(t, now, s.backoff(t.attempt))
	default:
		s.finalizeLocked(t, StateFailed, cause, now)
	}
	return nil
}

// heldLocked returns the task l still holds, or the fence error: the
// task is unknown, or its lease epoch moved on.
func (s *Store) heldLocked(l Lease) (*task, error) {
	t, ok := s.tasks[l.TaskID]
	if !ok {
		s.met.fenced.Inc()
		return nil, fmt.Errorf("%w: %s", ErrUnknownTask, l.TaskID)
	}
	if t.state != StateLeased || t.epoch != l.Epoch {
		s.met.fenced.Inc()
		return nil, fmt.Errorf("%w: task %s epoch %d (current %d, state %s)",
			ErrFenced, l.TaskID, l.Epoch, t.epoch, t.state)
	}
	return t, nil
}

func (s *Store) backoff(attempt int) time.Duration {
	d := float64(s.cfg.BaseBackoff) * math.Pow(2, float64(attempt-1))
	if d > float64(s.cfg.MaxBackoff) {
		d = float64(s.cfg.MaxBackoff)
	}
	return time.Duration(d)
}

// requeueLocked returns a leased task to its tenant queue (retry or
// reclaim). The epoch advances so the previous holder is fenced.
func (s *Store) requeueLocked(t *task, now time.Time, delay time.Duration) {
	delete(s.leasedSet, t.ID)
	s.epoch++
	t.epoch = s.epoch
	t.state = StatePending
	t.holder = ""
	t.enqueued = now
	t.notBefore = now.Add(delay)
	s.seq++
	t.seq = s.seq
	s.queuePendingLocked(s.tenantLocked(t.Tenant), t)
	s.pending++
	s.cond.Broadcast()
}

// finalizeLocked moves a task to a terminal state and updates
// accounting, journal and retention.
func (s *Store) finalizeLocked(t *task, state State, cause error, now time.Time) {
	if t.state == StatePending {
		s.removePendingLocked(t)
		s.pending--
	}
	delete(s.leasedSet, t.ID)
	t.state = state
	t.holder = ""
	t.finished = now
	if cause != nil {
		t.errMsg = cause.Error()
	}
	tq := s.tenantLocked(t.Tenant)
	if tq.live > 0 {
		tq.live--
	}
	s.backlogSecs -= t.costSeconds
	if s.backlogSecs < 0 {
		s.backlogSecs = 0
	}
	switch state {
	case StateDone:
		s.met.completed.Inc()
		s.met.e2e.Observe(now.Sub(t.submitted).Seconds())
		s.met.run.Observe(now.Sub(t.started).Seconds())
	case StateFailed:
		s.met.failed.Inc()
	case StateCanceled:
		s.met.canceled.Inc()
	}
	if s.journal != nil {
		s.journal.append(stateRecord(t.ID, state, t.errMsg, t.epoch, now))
		s.maybeCompactLocked()
	}
	s.termOrder = append(s.termOrder, t.ID)
	for len(s.termOrder) > s.cfg.Retention {
		id := s.termOrder[0]
		s.termOrder = s.termOrder[1:]
		delete(s.tasks, id)
	}
	s.cond.Broadcast()
}

// expireLocked reclaims tasks whose leases have expired. The chaos
// injector is consulted per held lease: a Transient fault force-expires
// it (the holder's clock runs slow — it still believes in the lease the
// store just revoked), a Latency fault defers the check by Delay (the
// holder's clock runs fast). Reclaimed tasks re-queue immediately and
// do not burn the retry budget; their new epoch fences the old holder.
func (s *Store) expireLocked(now time.Time) {
	for _, t := range s.leasedSet {
		deadline := t.deadline
		if s.cfg.Injector != nil {
			switch f := s.cfg.Injector.Decide(chaos.SiteLease, t.holder, t.attempt); f.Kind {
			case chaos.Transient:
				deadline = now
			case chaos.Latency:
				deadline = deadline.Add(f.Delay)
			}
		}
		if now.Before(deadline) {
			continue
		}
		s.met.reclaimed.Inc()
		if t.cancelReq {
			s.finalizeLocked(t, StateCanceled, context.Canceled, now)
			continue
		}
		s.requeueLocked(t, now, 0)
	}
}

// sweeper periodically expires leases and wakes blocked acquirers whose
// backoff gates may have opened.
func (s *Store) sweeper() {
	defer close(s.sweepDone)
	tick := time.NewTicker(s.cfg.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case <-tick.C:
			s.mu.Lock()
			if !s.closed {
				s.expireLocked(s.now())
				s.cond.Broadcast()
			}
			s.mu.Unlock()
		}
	}
}

// Sweep forces one expiry pass now (tests and drivers).
func (s *Store) Sweep() {
	s.mu.Lock()
	if !s.closed {
		s.expireLocked(s.now())
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Cancel cancels a task: pending finalizes CANCELED immediately; leased
// records a cancel request that the holder observes on its next Renew
// (completion wins the race if it lands first). Terminal tasks return
// ErrTerminal, unknown IDs ErrUnknownTask.
func (s *Store) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTask, id)
	}
	switch t.state {
	case StatePending:
		s.finalizeLocked(t, StateCanceled, context.Canceled, s.now())
		return nil
	case StateLeased:
		t.cancelReq = true
		return nil
	default:
		return fmt.Errorf("%w: %s is %s", ErrTerminal, id, t.state)
	}
}

// Get returns a snapshot of a task (live or retained terminal).
func (s *Store) Get(id string) (TaskView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[id]
	if !ok {
		return TaskView{}, false
	}
	return t.view(), true
}

// LookupStatus distinguishes "never existed" from "evicted by the
// retention bound".
type LookupStatus int

// Lookup results.
const (
	LookupFound LookupStatus = iota
	LookupExpired
	LookupUnknown
)

// Lookup fetches a task snapshot, reporting evicted auto-assigned IDs
// ("task-N" at or below the high-water mark) distinctly from unknown
// ones.
func (s *Store) Lookup(id string) (TaskView, LookupStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tasks[id]; ok {
		return t.view(), LookupFound
	}
	var n uint64
	if _, err := fmt.Sscanf(id, "task-%d", &n); err == nil && n >= 1 && n <= s.highAutoID {
		return TaskView{}, LookupExpired
	}
	return TaskView{}, LookupUnknown
}

// List returns retained tasks, optionally filtered by state ("" = all),
// in no particular order beyond live-before-terminal stability of the
// underlying map iteration being removed: results are sorted by
// submission sequence.
func (s *Store) List(state State) []TaskView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TaskView, 0, len(s.tasks))
	for _, t := range s.tasks {
		if state != "" && t.state != state {
			continue
		}
		out = append(out, t.view())
	}
	sortViews(out)
	return out
}

// Drain stops intake (Submit sheds with ShedDraining); replicas keep
// acquiring until the backlog is gone.
func (s *Store) Drain() {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// WaitIdle blocks until no pending or leased tasks remain (or ctx
// expires).
func (s *Store) WaitIdle(ctx context.Context) error {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		case <-stop:
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	for (s.pending > 0 || len(s.leasedSet) > 0) && ctx.Err() == nil && !s.closed {
		s.cond.Wait()
	}
	return ctx.Err()
}

// Close stops the sweeper, wakes every blocked acquirer with ErrClosed
// and closes the journal. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	j := s.journal
	s.journal = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	close(s.stopSweep)
	<-s.sweepDone
	if j != nil {
		return j.close()
	}
	return nil
}

// maybeCompactLocked bounds the journal: once the file outgrows the
// bound, rewrite it down to the live tasks; floor the next trigger at
// twice the compacted size so a full store does not recompact on every
// append.
func (s *Store) maybeCompactLocked() {
	if s.journal == nil || s.cfg.JournalMaxBytes <= 0 {
		return
	}
	threshold := s.cfg.JournalMaxBytes
	if s.compactFloor > threshold {
		threshold = s.compactFloor
	}
	if s.journal.size() <= threshold {
		return
	}
	live := make([]*task, 0, s.pending+len(s.leasedSet))
	for _, t := range s.tasks {
		if !t.state.Terminal() {
			live = append(live, t)
		}
	}
	sortTasksBySeq(live)
	recs := make([]journalRecord, len(live))
	for i, t := range live {
		recs[i] = submitRecord(t.Task, t.submitted)
	}
	if err := s.journal.compact(recs); err != nil {
		return
	}
	s.met.compactions.Inc()
	s.compactFloor = 2 * s.journal.size()
}
