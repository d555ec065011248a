package execstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
)

// fakeClock is a mutex-guarded settable clock for deterministic lease
// and backoff tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func openStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustSubmit(t *testing.T, s *Store, task Task) TaskView {
	t.Helper()
	v, err := s.Submit(task)
	if err != nil {
		t.Fatalf("Submit(%s): %v", task.ID, err)
	}
	return v
}

func TestLeaseFencingExactlyOnce(t *testing.T) {
	clk := newFakeClock()
	s := openStore(t, Config{LeaseTTL: time.Second, nowFn: clk.now})
	mustSubmit(t, s, Task{ID: "a", Tenant: "x"})

	l1 := s.TryAcquire("rep-1", 1)
	if len(l1) != 1 || l1[0].TaskID != "a" {
		t.Fatalf("TryAcquire: %+v", l1)
	}
	if v, _ := s.Get("a"); v.State != StateLeased || v.Holder != "rep-1" {
		t.Fatalf("state after acquire: %+v", v)
	}

	// rep-1 crashes: the lease expires and the task is reclaimed once.
	clk.advance(1100 * time.Millisecond)
	s.Sweep()
	if v, _ := s.Get("a"); v.State != StatePending {
		t.Fatalf("state after expiry: %+v", v)
	}
	if got := s.Stats().Reclaimed; got != 1 {
		t.Fatalf("Reclaimed = %d, want 1", got)
	}

	l2 := s.TryAcquire("rep-2", 1)
	if len(l2) != 1 {
		t.Fatalf("reacquire: %+v", l2)
	}
	if l2[0].Epoch <= l1[0].Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", l1[0].Epoch, l2[0].Epoch)
	}

	// The dead holder's completion must be fenced out...
	if err := s.Complete(l1[0], json.RawMessage(`"stale"`)); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale Complete: %v, want ErrFenced", err)
	}
	// ...while the live holder's lands exactly once.
	if err := s.Complete(l2[0], json.RawMessage(`"good"`)); err != nil {
		t.Fatalf("live Complete: %v", err)
	}
	if err := s.Complete(l2[0], json.RawMessage(`"again"`)); !errors.Is(err, ErrFenced) {
		t.Fatalf("double Complete: %v, want ErrFenced", err)
	}

	v, _ := s.Get("a")
	if v.State != StateDone || string(v.Output) != `"good"` {
		t.Fatalf("final state: %+v", v)
	}
	st := s.Stats()
	if st.Completed != 1 || st.Fenced < 2 {
		t.Fatalf("stats: completed=%d fenced=%d", st.Completed, st.Fenced)
	}
}

func TestRenewKeepsLeaseAlive(t *testing.T) {
	clk := newFakeClock()
	s := openStore(t, Config{LeaseTTL: time.Second, nowFn: clk.now})
	mustSubmit(t, s, Task{ID: "a", Tenant: "x"})
	l := s.TryAcquire("rep-1", 1)

	for i := 0; i < 5; i++ {
		clk.advance(900 * time.Millisecond)
		held, _ := s.Renew("rep-1")
		if len(held) != 1 {
			t.Fatalf("renew %d: held=%v", i, held)
		}
		s.Sweep()
	}
	if v, _ := s.Get("a"); v.State != StateLeased {
		t.Fatalf("lease lost despite renewals: %+v", v)
	}
	if err := s.Complete(l[0], nil); err != nil {
		t.Fatalf("Complete after renewals: %v", err)
	}
}

func TestReclaimDoesNotBurnRetryBudget(t *testing.T) {
	clk := newFakeClock()
	s := openStore(t, Config{LeaseTTL: time.Second, nowFn: clk.now})
	mustSubmit(t, s, Task{ID: "a", Tenant: "x", Retries: 0})

	// Three consecutive holder crashes: still re-queued, not FAILED.
	var last Lease
	for i := 0; i < 3; i++ {
		ls := s.TryAcquire(fmt.Sprintf("rep-%d", i), 1)
		if len(ls) != 1 {
			t.Fatalf("acquire %d failed", i)
		}
		last = ls[0]
		clk.advance(1100 * time.Millisecond)
		s.Sweep()
	}
	if v, _ := s.Get("a"); v.State != StatePending {
		t.Fatalf("after 3 reclaims: %+v", v)
	}
	// A real (transient) failure with zero budget does finalize.
	ls := s.TryAcquire("rep-9", 1)
	if err := s.Fail(ls[0], errors.New("boom")); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if v, _ := s.Get("a"); v.State != StateFailed {
		t.Fatalf("after failure: %+v", v)
	}
	_ = last
}

func TestRetryBackoffGatesDispatch(t *testing.T) {
	clk := newFakeClock()
	s := openStore(t, Config{LeaseTTL: time.Minute, BaseBackoff: 100 * time.Millisecond, nowFn: clk.now})
	mustSubmit(t, s, Task{ID: "a", Tenant: "x", Retries: 2})

	l := s.TryAcquire("rep-1", 1)
	if err := s.Fail(l[0], errors.New("transient")); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if v, _ := s.Get("a"); v.State != StatePending {
		t.Fatalf("not re-queued: %+v", v)
	}
	if got := s.TryAcquire("rep-1", 1); len(got) != 0 {
		t.Fatalf("dispatched inside backoff window: %+v", got)
	}
	clk.advance(150 * time.Millisecond)
	got := s.TryAcquire("rep-1", 1)
	if len(got) != 1 {
		t.Fatal("not dispatched after backoff elapsed")
	}
	if got[0].Task.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", got[0].Task.Attempt)
	}
	// Permanent failures skip the remaining budget.
	if err := s.Fail(got[0], chaos.Permanent(errors.New("bad input"))); err != nil {
		t.Fatalf("Fail permanent: %v", err)
	}
	if v, _ := s.Get("a"); v.State != StateFailed {
		t.Fatalf("permanent failure not terminal: %+v", v)
	}
}

func TestCancelSemantics(t *testing.T) {
	clk := newFakeClock()
	s := openStore(t, Config{LeaseTTL: time.Minute, nowFn: clk.now})

	// Pending: cancels immediately.
	mustSubmit(t, s, Task{ID: "p", Tenant: "x"})
	if err := s.Cancel("p"); err != nil {
		t.Fatalf("Cancel pending: %v", err)
	}
	if v, _ := s.Get("p"); v.State != StateCanceled {
		t.Fatalf("pending cancel: %+v", v)
	}

	// Leased: flagged, surfaced via Renew, finalized by the holder.
	mustSubmit(t, s, Task{ID: "l", Tenant: "x"})
	ls := s.TryAcquire("rep-1", 1)
	if err := s.Cancel("l"); err != nil {
		t.Fatalf("Cancel leased: %v", err)
	}
	if v, _ := s.Get("l"); v.State != StateLeased {
		t.Fatalf("leased cancel should defer to holder: %+v", v)
	}
	_, canceled := s.Renew("rep-1")
	if len(canceled) != 1 || canceled[0] != "l" {
		t.Fatalf("Renew canceled list: %v", canceled)
	}
	if err := s.Fail(ls[0], context.Canceled); err != nil {
		t.Fatalf("Fail canceled: %v", err)
	}
	if v, _ := s.Get("l"); v.State != StateCanceled {
		t.Fatalf("leased cancel final: %+v", v)
	}

	// Terminal: rejected.
	if err := s.Cancel("l"); !errors.Is(err, ErrTerminal) {
		t.Fatalf("Cancel terminal: %v, want ErrTerminal", err)
	}
	if err := s.Cancel("nope"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("Cancel unknown: %v, want ErrUnknownTask", err)
	}
}

// TestCancelRetryingTask: a task parked behind a retry backoff is still
// PENDING, so it cancels at once and never dispatches again.
func TestCancelRetryingTask(t *testing.T) {
	clk := newFakeClock()
	s := openStore(t, Config{LeaseTTL: time.Minute, nowFn: clk.now})
	mustSubmit(t, s, Task{ID: "r", Tenant: "x", Retries: 1})
	lr := s.TryAcquire("rep-1", 1)
	if err := s.Fail(lr[0], errors.New("transient")); err != nil {
		t.Fatalf("Fail transient: %v", err)
	}
	if err := s.Cancel("r"); err != nil {
		t.Fatalf("Cancel parked: %v", err)
	}
	clk.advance(time.Minute)
	if v, _ := s.Get("r"); v.State != StateCanceled {
		t.Fatalf("parked cancel: %+v", v)
	}
	if got := s.TryAcquire("rep-1", 1); len(got) != 0 {
		t.Fatalf("canceled task dispatched: %+v", got)
	}
	if st := s.Stats(); st.Canceled != 1 || st.Pending != 0 {
		t.Fatalf("canceled %d pending %d, want 1 0", st.Canceled, st.Pending)
	}
}

// TestDuplicateAndAutoIDs: an empty ID gets the next task-N, a
// caller-chosen ID is kept, and a duplicate is refused.
func TestDuplicateAndAutoIDs(t *testing.T) {
	s := openStore(t, Config{})
	if v := mustSubmit(t, s, Task{Tenant: "x"}); v.ID != "task-1" {
		t.Fatalf("auto id = %s, want task-1", v.ID)
	}
	mustSubmit(t, s, Task{ID: "mine", Tenant: "x"})
	if _, err := s.Submit(Task{ID: "mine", Tenant: "x"}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate submit: %v, want ErrDuplicateID", err)
	}
	if _, err := s.Submit(Task{ID: "task-1", Tenant: "x"}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate of an auto id: %v, want ErrDuplicateID", err)
	}
	if v := mustSubmit(t, s, Task{Tenant: "x"}); v.ID != "task-2" {
		t.Fatalf("auto id = %s, want task-2", v.ID)
	}
	if st := s.Stats(); st.Submitted != 3 || st.Pending != 3 {
		t.Fatalf("submitted %d pending %d, want 3 3", st.Submitted, st.Pending)
	}
}

func TestShedTaxonomy(t *testing.T) {
	clk := newFakeClock()

	t.Run("depth", func(t *testing.T) {
		s := openStore(t, Config{MaxPending: 2, nowFn: clk.now})
		mustSubmit(t, s, Task{Tenant: "x"})
		mustSubmit(t, s, Task{Tenant: "x"})
		_, err := s.Submit(Task{Tenant: "x"})
		se, ok := AsShed(err)
		if !ok || se.Reason != ShedDepth {
			t.Fatalf("err = %v, want depth shed", err)
		}
		if se.TenantCaused() {
			t.Fatal("depth shed must map to 503, not 429")
		}
		if se.RetryAfter <= 0 {
			t.Fatalf("RetryAfter = %v", se.RetryAfter)
		}
	})

	t.Run("tenant-quota", func(t *testing.T) {
		s := openStore(t, Config{PerTenantLimit: 1, nowFn: clk.now})
		mustSubmit(t, s, Task{Tenant: "x"})
		_, err := s.Submit(Task{Tenant: "x"})
		se, ok := AsShed(err)
		if !ok || se.Reason != ShedTenantQuota || !se.TenantCaused() {
			t.Fatalf("err = %v, want tenant-quota shed (429)", err)
		}
		// Another tenant is unaffected.
		mustSubmit(t, s, Task{Tenant: "y"})
	})

	t.Run("tenant-rate", func(t *testing.T) {
		s := openStore(t, Config{RatePerSec: 2, Burst: 1, nowFn: clk.now})
		mustSubmit(t, s, Task{Tenant: "x"})
		_, err := s.Submit(Task{Tenant: "x"})
		se, ok := AsShed(err)
		if !ok || se.Reason != ShedTenantRate || !se.TenantCaused() {
			t.Fatalf("err = %v, want tenant-rate shed (429)", err)
		}
		// Sleeping exactly RetryAfter must admit (fake clock: advance).
		clk.advance(se.RetryAfter)
		mustSubmit(t, s, Task{Tenant: "x"})
	})

	t.Run("backlog-cost", func(t *testing.T) {
		s := openStore(t, Config{
			DefaultCostSeconds: 10, // every task "costs" 10s
			MaxEstimatedWait:   25 * time.Second,
			nowFn:              clk.now,
		})
		// One implicit replica slot: 2 tasks = 20s backlog admits, the
		// third projects 30s > 25s and sheds.
		mustSubmit(t, s, Task{Tenant: "x", Kind: "sim"})
		mustSubmit(t, s, Task{Tenant: "x", Kind: "sim"})
		_, err := s.Submit(Task{Tenant: "x", Kind: "sim"})
		se, ok := AsShed(err)
		if !ok || se.Reason != ShedBacklogCost {
			t.Fatalf("err = %v, want backlog-cost shed", err)
		}
		if se.TenantCaused() {
			t.Fatal("backlog shed must map to 503")
		}
		if se.EstimatedWait <= 25*time.Second {
			t.Fatalf("EstimatedWait = %v, want > MaxEstimatedWait", se.EstimatedWait)
		}
		// Registering more capacity re-opens admission: 4 slots bring
		// the projected wait under the bound.
		s.RegisterReplica("rep-1", 4)
		mustSubmit(t, s, Task{Tenant: "x", Kind: "sim"})
	})

	t.Run("draining", func(t *testing.T) {
		s := openStore(t, Config{nowFn: clk.now})
		s.Drain()
		_, err := s.Submit(Task{Tenant: "x"})
		se, ok := AsShed(err)
		if !ok || se.Reason != ShedDraining || se.TenantCaused() {
			t.Fatalf("err = %v, want draining shed (503)", err)
		}
	})
}

func TestCostModelLearnsFromRuns(t *testing.T) {
	clk := newFakeClock()
	s := openStore(t, Config{DefaultCostSeconds: 1, LeaseTTL: time.Minute, nowFn: clk.now})

	// Run 20 tasks of kind "slow" that take 5s each: the model's
	// estimate should move from the 1s prior toward 5s.
	for i := 0; i < 20; i++ {
		mustSubmit(t, s, Task{ID: fmt.Sprintf("s%d", i), Tenant: "x", Kind: "slow"})
		l := s.TryAcquire("rep", 1)
		clk.advance(5 * time.Second)
		if err := s.Complete(l[0], nil); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	if est := s.cost.estimate("slow"); est < 4 || est > 5.01 {
		t.Fatalf("estimate(slow) = %.2f, want ~5s", est)
	}
	if est := s.cost.estimate("fresh"); est > 4 {
		t.Fatalf("estimate(fresh) = %.2f, should stay near global mean blend", est)
	}
	if u := s.cost.normalized("slow"); u <= s.cost.normalized("cheap-unknown") {
		t.Fatal("slow kind should cost more DRR units than an unknown kind")
	}
}

func TestJournalRecoveryResumesEpochAndPending(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.journal")
	clk := newFakeClock()

	s, err := Open(Config{JournalPath: path, LeaseTTL: time.Minute, nowFn: clk.now})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		mustSubmit(t, s, Task{Tenant: "x", Kind: "k", Payload: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))})
	}
	// Complete two (terminal records carry their epochs), lease one and
	// "crash" with it held.
	ls := s.TryAcquire("rep", 3)
	if err := s.Complete(ls[0], json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Complete(ls[1], json.RawMessage(`2`)); err != nil {
		t.Fatal(err)
	}
	lastEpoch := ls[2].Epoch
	s.Close() // close ≠ completing: task 3 was still leased, 4-5 pending

	// Corrupt the journal with a torn line to exercise the skip path.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"state","id":"task-1","sta`)
	f.Close()

	s2 := openStore(t, Config{JournalPath: path, LeaseTTL: time.Minute, nowFn: clk.now})
	st := s2.Stats()
	if st.Recovered != 3 {
		t.Fatalf("Recovered = %d, want 3 (1 leased-at-crash + 2 pending)", st.Recovered)
	}
	if st.JournalSkipped != 1 {
		t.Fatalf("JournalSkipped = %d, want 1", st.JournalSkipped)
	}
	if st.Epoch < lastEpoch {
		t.Fatalf("epoch fence regressed: %d < %d", st.Epoch, lastEpoch)
	}
	// The two completed tasks must NOT come back.
	for _, id := range []string{"task-1", "task-2"} {
		if _, ok := s2.Get(id); ok {
			t.Fatalf("completed task %s resurrected", id)
		}
	}
	// A new auto-ID submission must not collide with recovered IDs.
	v := mustSubmit(t, s2, Task{Tenant: "x"})
	if v.ID == "task-1" || v.ID == "task-2" || v.ID == "task-3" || v.ID == "task-4" || v.ID == "task-5" {
		t.Fatalf("auto-ID collided with recovered ID: %s", v.ID)
	}
	// Recovered leases restart cleanly behind the fence.
	got := s2.TryAcquire("rep2", 10)
	if len(got) != 4 {
		t.Fatalf("reacquire: %d leases, want 4", len(got))
	}
	for _, l := range got {
		if l.Epoch <= lastEpoch {
			t.Fatalf("recovered lease epoch %d not past pre-crash fence %d", l.Epoch, lastEpoch)
		}
	}
}

// TestJournalReplaySkipsCorruptMidFileLines: a partial fsync after
// power loss can tear lines anywhere in the journal, not just the final
// append. Replay skips each bad line with a counted warning and keeps
// every decodable record.
func TestJournalReplaySkipsCorruptMidFileLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.journal")
	lines := []string{
		`{"op":"submit","id":"j1","tenant":"a","t":"2026-01-01T00:00:00Z"}`,
		`{"op":"submit","id":"j2","tenant":"a","t":"2026-01-01T00:00:01Z"}`,
		"\x00\x00garbage not json at all\x7f",                          // mid-file garbage
		`{"op":"state","id":"j2","state":"DONE","epoch":7,"t":"2026-0`, // truncated mid-record
		`{"op":"submit","id":"j3","tenant":"b","t":"2026-01-01T00:00:02Z"}`,
		`{"op":"state","id":"j1","state":"DONE","epoch":5,"t":"2026-01-01T00:00:03Z"}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, Config{JournalPath: path, LeaseTTL: time.Minute})
	st := s.Stats()
	if st.JournalSkipped != 2 {
		t.Fatalf("JournalSkipped = %d, want 2 (garbage + truncated)", st.JournalSkipped)
	}
	// j1 finished; j2's DONE transition was the torn line, so it is
	// conservatively still live; j3 never finished.
	if st.Recovered != 2 {
		t.Fatalf("Recovered = %d, want 2", st.Recovered)
	}
	if _, ok := s.Get("j1"); ok {
		t.Fatal("j1 finished before the crash but came back")
	}
	for _, id := range []string{"j2", "j3"} {
		if v, ok := s.Get(id); !ok || v.State != StatePending {
			t.Fatalf("%s: %+v, want PENDING", id, v)
		}
	}
	if v, _ := s.Get("j3"); v.Tenant != "b" {
		t.Fatalf("j3 tenant %q, want b", v.Tenant)
	}
	// j1's terminal record is decodable, so its epoch feeds the fence;
	// the torn record's epoch 7 was never read.
	if want := uint64(5 + epochRestartGap); st.Epoch != want {
		t.Fatalf("epoch = %d, want %d", st.Epoch, want)
	}
}

func TestJournalCompactionBoundsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.journal")
	clk := newFakeClock()
	const maxBytes = 2048

	s := openStore(t, Config{
		JournalPath:     path,
		JournalMaxBytes: maxBytes,
		LeaseTTL:        time.Minute,
		nowFn:           clk.now,
	})
	payload := json.RawMessage(`{"pad":"` + strings.Repeat("x", 64) + `"}`)
	for i := 0; i < 400; i++ {
		mustSubmit(t, s, Task{Tenant: "x", Kind: "k", Payload: payload})
		l := s.TryAcquire("rep", 1)
		if err := s.Complete(l[0], nil); err != nil {
			t.Fatalf("Complete %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.JournalCompactions == 0 {
		t.Fatal("churn never triggered a compaction")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Live set is ~empty, so the floor never inflates the threshold:
	// the file may overshoot by at most one pre-compaction burst.
	if fi.Size() > 3*maxBytes {
		t.Fatalf("journal grew to %d bytes despite compaction (bound %d)", fi.Size(), 3*maxBytes)
	}
}

// TestCompactedJournalRecoversLiveWork: after churn has compacted the
// journal, work live at a crash still comes back, and a corrupt line
// in the compacted file is skipped rather than failing the replay.
func TestCompactedJournalRecoversLiveWork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.journal")
	clk := newFakeClock()
	cfg := Config{JournalPath: path, JournalMaxBytes: 2048, LeaseTTL: time.Minute, nowFn: clk.now}

	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 200; i++ {
		mustSubmit(t, s, Task{Tenant: "x", Kind: "k"})
		l := s.TryAcquire("rep", 1)
		if err := s.Complete(l[0], nil); err != nil {
			t.Fatalf("Complete %d: %v", i, err)
		}
	}
	if s.Stats().JournalCompactions == 0 {
		t.Fatal("churn never triggered a compaction")
	}
	for i := 0; i < 5; i++ {
		mustSubmit(t, s, Task{ID: fmt.Sprintf("pending-%d", i), Tenant: "x"})
	}
	s.Close() // crash with five tasks still pending

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte("{garbage\n"), raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, cfg)
	st := s2.Stats()
	if st.JournalSkipped != 1 {
		t.Fatalf("JournalSkipped = %d, want 1 (the injected garbage line)", st.JournalSkipped)
	}
	if st.Recovered != 5 || st.Pending != 5 {
		t.Fatalf("recovered %d pending %d, want 5 5", st.Recovered, st.Pending)
	}
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("pending-%d", i)
		if v, ok := s2.Get(id); !ok || v.State != StatePending {
			t.Fatalf("%s: %+v, want PENDING", id, v)
		}
	}
	if got := s2.TryAcquire("rep", 10); len(got) != 5 {
		t.Fatalf("dispatched %d recovered tasks, want 5", len(got))
	}
}

func TestChaosLeaseSite(t *testing.T) {
	clk := newFakeClock()

	t.Run("transient force-expires", func(t *testing.T) {
		inj := chaos.NewSeeded(1, chaos.Rule{
			Site: chaos.SiteLease, Op: "rep-skewed", Attempt: -1, Kind: chaos.Transient, Prob: 1,
		})
		s := openStore(t, Config{LeaseTTL: time.Hour, Injector: inj, nowFn: clk.now})
		mustSubmit(t, s, Task{ID: "a", Tenant: "x"})
		l := s.TryAcquire("rep-skewed", 1)
		s.Sweep() // injector fires: lease revoked despite the 1h TTL
		if v, _ := s.Get("a"); v.State != StatePending {
			t.Fatalf("chaos did not force-expire: %+v", v)
		}
		if err := s.Complete(l[0], nil); !errors.Is(err, ErrFenced) {
			t.Fatalf("skewed holder not fenced: %v", err)
		}
	})

	t.Run("latency extends deadline", func(t *testing.T) {
		inj := chaos.NewSeeded(1, chaos.Rule{
			Site: chaos.SiteLease, Op: "rep-fast", Attempt: -1, Kind: chaos.Latency, Prob: 1,
			Delay: time.Hour,
		})
		s := openStore(t, Config{LeaseTTL: time.Second, Injector: inj, nowFn: clk.now})
		mustSubmit(t, s, Task{ID: "a", Tenant: "x"})
		l := s.TryAcquire("rep-fast", 1)
		clk.advance(10 * time.Second) // well past the nominal TTL
		s.Sweep()
		if v, _ := s.Get("a"); v.State != StateLeased {
			t.Fatalf("latency fault should have deferred expiry: %+v", v)
		}
		if err := s.Complete(l[0], nil); err != nil {
			t.Fatalf("Complete under extended lease: %v", err)
		}
	})
}

func TestLookupDistinguishesExpiredFromUnknown(t *testing.T) {
	clk := newFakeClock()
	s := openStore(t, Config{Retention: 2, LeaseTTL: time.Minute, nowFn: clk.now})
	for i := 0; i < 4; i++ {
		mustSubmit(t, s, Task{Tenant: "x"})
		l := s.TryAcquire("rep", 1)
		if err := s.Complete(l[0], nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, st := s.Lookup("task-1"); st != LookupExpired {
		t.Fatalf("task-1: %v, want LookupExpired", st)
	}
	if _, st := s.Lookup("task-4"); st != LookupFound {
		t.Fatalf("task-4: %v, want LookupFound", st)
	}
	if _, st := s.Lookup("task-99"); st != LookupUnknown {
		t.Fatalf("task-99: %v, want LookupUnknown", st)
	}
	if _, st := s.Lookup("bogus"); st != LookupUnknown {
		t.Fatalf("bogus: %v, want LookupUnknown", st)
	}
}

func TestAwaitAcquireWakesOnSubmit(t *testing.T) {
	s := openStore(t, Config{LeaseTTL: time.Minute})
	got := make(chan []Lease, 1)
	go func() {
		ls, err := s.AwaitAcquire(context.Background(), "rep", 1)
		if err != nil {
			t.Errorf("AwaitAcquire: %v", err)
		}
		got <- ls
	}()
	time.Sleep(20 * time.Millisecond) // let the acquirer block
	mustSubmit(t, s, Task{ID: "a", Tenant: "x"})
	select {
	case ls := <-got:
		if len(ls) != 1 || ls[0].TaskID != "a" {
			t.Fatalf("leases: %+v", ls)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AwaitAcquire never woke")
	}
}

func TestAwaitAcquireHonorsContext(t *testing.T) {
	s := openStore(t, Config{LeaseTTL: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := s.AwaitAcquire(ctx, "rep", 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestConcurrentStatsDuringChurn(t *testing.T) {
	s := openStore(t, Config{LeaseTTL: time.Minute, MaxPending: 10000})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st := s.Stats()
					if st.Pending < 0 || st.Completed > st.Submitted {
						t.Errorf("inconsistent stats: %+v", st)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		mustSubmit(t, s, Task{Tenant: fmt.Sprintf("t%d", i%7)})
		for _, l := range s.TryAcquire("rep", 2) {
			if err := s.Complete(l, nil); err != nil {
				t.Fatalf("Complete: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
