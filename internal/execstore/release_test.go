package execstore

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/execq"
)

// idleReplica builds a replica whose fetch and renew loops never
// started, so a test drives dispatch by hand with leases it acquired.
func idleReplica(t *testing.T, s *Store, id string) *Replica {
	t.Helper()
	q, err := execq.New(execq.Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := &Replica{
		cfg: ReplicaConfig{ID: id, Store: s, Workers: 1, Prefetch: 1,
			Handler: func(context.Context, TaskView) (json.RawMessage, error) { return json.RawMessage(`"ran"`), nil }},
		q: q, local: make(map[string]localJob), fetched: make(chan struct{}),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	t.Cleanup(r.Kill)
	return r
}

// TestReplicaRejectedLeaseIsReleased: a lease the local queue refuses
// (it is closing) goes back to the store unrun — QUEUED again at once,
// its attempt returned, nothing failed — and another replica runs it.
// With Retries 0, charging that attempt would end the task FAILED.
func TestReplicaRejectedLeaseIsReleased(t *testing.T) {
	clk := newFakeClock()
	s := openStore(t, Config{LeaseTTL: time.Second, nowFn: clk.now})
	mustSubmit(t, s, Task{ID: "a", Tenant: "x"})
	r := idleReplica(t, s, "r1")
	leases := s.TryAcquire("r1", 1)
	if len(leases) != 1 {
		t.Fatalf("TryAcquire: %+v", leases)
	}
	r.q.Close()
	r.dispatch(leases[0])

	v, _ := s.Get("a")
	if v.State != StatePending || v.Attempt != 0 || v.Holder != "" {
		t.Fatalf("after rejected dispatch: state %s attempt %d holder %q, want PENDING 0 \"\"", v.State, v.Attempt, v.Holder)
	}
	if st := s.Stats(); st.Released != 1 || st.Failed != 0 || st.Retried != 0 {
		t.Fatalf("stats: released %d failed %d retried %d, want 1 0 0", st.Released, st.Failed, st.Retried)
	}
	if err := s.Release(leases[0]); !errors.Is(err, ErrFenced) {
		t.Fatalf("second Release of the same lease: %v, want ErrFenced", err)
	}

	r2, err := NewReplica(ReplicaConfig{ID: "r2", Store: s, Workers: 1, Handler: r.cfg.Handler})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Kill()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("a"); v.State != StateDone || v.Attempt != 1 || string(v.Output) != `"ran"` {
		t.Fatalf("final: state %s attempt %d output %s, want DONE 1 \"ran\"", v.State, v.Attempt, v.Output)
	}
}

// TestKilledReplicaReportsNothingOnRejection: a killed replica whose
// closed queue refuses a lease reports nothing; the lease stays held
// until the store's clock passes its TTL, and then it is reclaimed.
func TestKilledReplicaReportsNothingOnRejection(t *testing.T) {
	clk := newFakeClock()
	s := openStore(t, Config{LeaseTTL: time.Second, nowFn: clk.now})
	mustSubmit(t, s, Task{ID: "a", Tenant: "x"})
	r := idleReplica(t, s, "r1")
	leases := s.TryAcquire("r1", 1)
	if len(leases) != 1 {
		t.Fatalf("TryAcquire: %+v", leases)
	}
	r.Kill()
	r.dispatch(leases[0])

	if v, _ := s.Get("a"); v.State != StateLeased || v.Holder != "r1" || v.Attempt != 1 {
		t.Fatalf("after killed dispatch: state %s holder %q attempt %d, want LEASED r1 1", v.State, v.Holder, v.Attempt)
	}
	if st := s.Stats(); st.Released != 0 || st.Failed != 0 || st.Retried != 0 {
		t.Fatalf("killed replica reported: released %d failed %d retried %d", st.Released, st.Failed, st.Retried)
	}
	clk.advance(1100 * time.Millisecond)
	s.Sweep()
	if v, _ := s.Get("a"); v.State != StatePending {
		t.Fatalf("after TTL: state %s, want PENDING", v.State)
	}
	if got := s.Stats().Reclaimed; got != 1 {
		t.Fatalf("Reclaimed = %d, want 1", got)
	}
}

// TestReleaseHonoursCancel: a released task with a pending cancel
// request finalizes CANCELED instead of re-queueing.
func TestReleaseHonoursCancel(t *testing.T) {
	s := openStore(t, Config{LeaseTTL: time.Second, nowFn: newFakeClock().now})
	mustSubmit(t, s, Task{ID: "a", Tenant: "x"})
	leases := s.TryAcquire("r1", 1)
	if err := s.Cancel("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(leases[0]); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("a"); v.State != StateCanceled {
		t.Fatalf("state %s, want CANCELED", v.State)
	}
	if got := s.Stats().Released; got != 0 {
		t.Fatalf("Released = %d, want 0 for a task finalized CANCELED", got)
	}
}
