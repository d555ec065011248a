package execstore

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// waitIdle fails the test unless the store settles within 10 s.
func waitIdle(t *testing.T, s *Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("store never went idle: %v (stats %+v)", err, s.Stats())
	}
}

// TestReplicaPanicIsolatedAsFailure: a panicking handler ends that
// attempt through Store.Fail and the replica keeps serving. With no
// retry budget the task is FAILED with the panic in its error; with
// one retry the second attempt runs and completes.
func TestReplicaPanicIsolatedAsFailure(t *testing.T) {
	s := openStore(t, Config{LeaseTTL: time.Second, BaseBackoff: time.Millisecond})
	var calls atomic.Int64
	r, err := NewReplica(ReplicaConfig{ID: "r1", Store: s, Workers: 1,
		Handler: func(_ context.Context, tv TaskView) (json.RawMessage, error) {
			if calls.Add(1) <= 2 {
				panic("kaboom " + tv.ID)
			}
			return json.RawMessage(`"ok"`), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Kill()
	mustSubmit(t, s, Task{ID: "once", Tenant: "x"})
	waitIdle(t, s)
	mustSubmit(t, s, Task{ID: "twice", Tenant: "x", Retries: 1})
	waitIdle(t, s)

	if v, _ := s.Get("once"); v.State != StateFailed || !strings.Contains(v.Err, "panicked: kaboom once") {
		t.Fatalf("once: state %s err %q, want FAILED with the panic", v.State, v.Err)
	}
	if v, _ := s.Get("twice"); v.State != StateDone || v.Attempt != 2 || string(v.Output) != `"ok"` {
		t.Fatalf("twice: state %s attempt %d output %s, want DONE 2 \"ok\"", v.State, v.Attempt, v.Output)
	}
	if st := s.Stats(); st.Failed != 1 || st.Retried != 1 || st.Completed != 1 {
		t.Fatalf("stats: failed %d retried %d completed %d, want 1 1 1", st.Failed, st.Retried, st.Completed)
	}
}

// TestKilledReplicaDispatchReportsNothing: a killed replica says
// nothing about the tasks it was dispatched — neither the one running
// nor the one still waiting for a worker. Both leases stay held until
// the store's clock passes their TTL, and then both are reclaimed.
func TestKilledReplicaDispatchReportsNothing(t *testing.T) {
	clk := newFakeClock()
	s := openStore(t, Config{LeaseTTL: time.Second, nowFn: clk.now})
	mustSubmit(t, s, Task{ID: "a", Tenant: "x"})
	mustSubmit(t, s, Task{ID: "b", Tenant: "x"})
	started := make(chan struct{})
	// No fetch or renew loop: the test dispatches leases it acquired to
	// a one-worker pool by hand.
	r := newReplica(ReplicaConfig{ID: "r1", Store: s, Workers: 1, Prefetch: 1,
		Handler: func(ctx context.Context, _ TaskView) (json.RawMessage, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	r.pool.Add(1)
	go r.worker()
	leases := s.TryAcquire("r1", 2)
	if len(leases) != 2 {
		t.Fatalf("TryAcquire: %+v", leases)
	}
	r.dispatch(leases[0])
	r.dispatch(leases[1])
	<-started
	r.Kill()

	for _, id := range []string{"a", "b"} {
		if v, _ := s.Get(id); v.State != StateLeased || v.Holder != "r1" || v.Attempt != 1 {
			t.Fatalf("%s after kill: state %s holder %q attempt %d, want LEASED r1 1", id, v.State, v.Holder, v.Attempt)
		}
	}
	if st := s.Stats(); st.Failed != 0 || st.Retried != 0 || st.Canceled != 0 || st.Completed != 0 {
		t.Fatalf("killed replica reported: %+v", st)
	}
	clk.advance(1100 * time.Millisecond)
	s.Sweep()
	for _, id := range []string{"a", "b"} {
		if v, _ := s.Get(id); v.State != StatePending {
			t.Fatalf("%s after TTL: state %s, want PENDING", id, v.State)
		}
	}
	if got := s.Stats().Reclaimed; got != 2 {
		t.Fatalf("Reclaimed = %d, want 2", got)
	}
}

// TestReplicaDrainTimeoutCancelsRunning: when ctx expires with a
// handler still running, Drain cancels it, waits for it to return and
// reports ctx.Err(); the canceled attempt finalizes CANCELED.
func TestReplicaDrainTimeoutCancelsRunning(t *testing.T) {
	s := openStore(t, Config{LeaseTTL: time.Minute})
	started := make(chan struct{})
	r, err := NewReplica(ReplicaConfig{ID: "r1", Store: s, Workers: 1,
		Handler: func(ctx context.Context, _ TaskView) (json.RawMessage, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, s, Task{ID: "slow", Tenant: "x"})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	if v, _ := s.Get("slow"); v.State != StateCanceled {
		t.Fatalf("state %s, want CANCELED", v.State)
	}
	r.Kill() // after Drain: a no-op that must not panic
}
