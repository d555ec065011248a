package execstore

import (
	"math"

	"repro/internal/obs"
)

// histBounds are the exponential latency bucket upper bounds in
// seconds, shared by the wait/run/e2e histograms and the per-kind cost
// model.
var histBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// smetrics holds the store's instruments. With a nil registry the
// instruments are detached but still record, so Stats() works anywhere.
type smetrics struct {
	submitted      *obs.Counter
	recovered      *obs.Counter
	journalSkipped *obs.Counter
	compactions    *obs.Counter
	acquired       *obs.Counter
	completed      *obs.Counter
	failed         *obs.Counter
	canceled       *obs.Counter
	retried        *obs.Counter
	reclaimed      *obs.Counter
	fenced         *obs.Counter
	shed           *obs.CounterVec
	wait           *obs.Histogram
	run            *obs.Histogram
	e2e            *obs.Histogram
}

func newSMetrics(reg *obs.Registry) *smetrics {
	return &smetrics{
		submitted:      reg.Counter("execstore_submitted_total", "Tasks accepted by Submit."),
		recovered:      reg.Counter("execstore_recovered_total", "Tasks re-queued from the journal at startup."),
		journalSkipped: reg.Counter("execstore_journal_skipped_total", "Corrupt journal lines skipped during recovery."),
		compactions:    reg.Counter("execstore_journal_compactions_total", "Size-triggered journal compactions."),
		acquired:       reg.Counter("execstore_leases_acquired_total", "Leases handed to replicas."),
		completed:      reg.Counter("execstore_completed_total", "Tasks completed exactly once."),
		failed:         reg.Counter("execstore_failed_total", "Tasks failed terminally."),
		canceled:       reg.Counter("execstore_canceled_total", "Tasks canceled."),
		retried:        reg.Counter("execstore_retried_total", "Transient failures re-queued with backoff."),
		reclaimed:      reg.Counter("execstore_leases_reclaimed_total", "Expired leases reclaimed from dead or skewed holders."),
		fenced:         reg.Counter("execstore_fenced_total", "Completions/failures rejected for a stale lease epoch."),
		shed:           reg.CounterVec("execstore_shed_total", "Submissions shed at admission, by reason.", "reason"),
		wait:           reg.Histogram("execstore_wait_seconds", "Queue-to-lease latency.", histBounds),
		run:            reg.Histogram("execstore_run_seconds", "Lease-to-completion latency of successful attempts.", histBounds),
		e2e:            reg.Histogram("execstore_e2e_seconds", "Submit-to-completion latency.", histBounds),
	}
}

func (m *smetrics) shedFor(r ShedReason) *obs.Counter { return m.shed.With(string(r)) }

// registerGauges exposes live store state on the registry. One store
// per registry: a second store would overwrite these gauge functions.
func (s *Store) registerGauges(reg *obs.Registry) {
	if reg == nil {
		return
	}
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return f()
		}
	}
	reg.GaugeFunc("execstore_pending", "Tasks waiting for a lease.",
		locked(func() float64 { return float64(s.pending) }))
	reg.GaugeFunc("execstore_leased", "Tasks currently leased to replicas.",
		locked(func() float64 { return float64(len(s.leasedSet)) }))
	reg.GaugeFunc("execstore_epoch", "Current fencing epoch.",
		locked(func() float64 { return float64(s.epoch) }))
	reg.GaugeFunc("execstore_tenants_active", "Tenants with pending work.",
		locked(func() float64 { return float64(len(s.ring)) }))
	reg.GaugeFunc("execstore_replicas_live", "Replicas inside the liveness window.",
		locked(func() float64 { return float64(len(s.replicas)) }))
	reg.GaugeFunc("execstore_backlog_cost_seconds", "Estimated cost-seconds of the pending backlog.",
		locked(func() float64 { return s.backlogSecs }))
	reg.GaugeFunc("execstore_draining", "1 while the store refuses new work.",
		locked(func() float64 {
			if s.draining || s.closed {
				return 1
			}
			return 0
		}))
}

// HistogramSummary is the JSON-friendly snapshot of one latency
// histogram, with p999 included for the soak report.
type HistogramSummary struct {
	Count       uint64  `json:"count"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P90Seconds  float64 `json:"p90_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	P999Seconds float64 `json:"p999_seconds"`
}

func summarize(h *obs.Histogram) HistogramSummary {
	snap := h.Snapshot()
	s := HistogramSummary{
		Count:       snap.Count,
		P50Seconds:  round6(snap.Quantile(0.50)),
		P90Seconds:  round6(snap.Quantile(0.90)),
		P99Seconds:  round6(snap.Quantile(0.99)),
		P999Seconds: round6(snap.Quantile(0.999)),
	}
	if snap.Count > 0 {
		s.MeanSeconds = round6(snap.Sum / float64(snap.Count))
	}
	return s
}

func round6(v float64) float64 { return math.Round(v*1e6) / 1e6 }

// Stats is a point-in-time snapshot of store state, counters and
// latency histograms.
type Stats struct {
	Pending  int    `json:"pending"`
	Leased   int    `json:"leased"`
	Epoch    uint64 `json:"epoch"`
	Tenants  int    `json:"tenants_active"`
	Replicas int    `json:"replicas_live"`
	Draining bool   `json:"draining"`

	Submitted          uint64 `json:"submitted"`
	Recovered          uint64 `json:"recovered"`
	JournalSkipped     uint64 `json:"journal_skipped,omitempty"`
	JournalCompactions uint64 `json:"journal_compactions,omitempty"`
	Acquired           uint64 `json:"acquired"`
	Completed          uint64 `json:"completed"`
	Failed             uint64 `json:"failed"`
	Canceled           uint64 `json:"canceled"`
	Retried            uint64 `json:"retried"`
	Reclaimed          uint64 `json:"reclaimed"`
	// Fenced counts completions or failures rejected because their
	// lease epoch was stale — each one is a double-execution the fence
	// turned into a no-op.
	Fenced uint64 `json:"fenced"`
	// Shed counts admission rejections by reason.
	Shed map[string]uint64 `json:"shed,omitempty"`
	// BacklogCostSeconds is the estimated cost of the pending backlog.
	BacklogCostSeconds float64 `json:"backlog_cost_seconds"`

	Wait HistogramSummary `json:"wait"`
	Run  HistogramSummary `json:"run"`
	E2E  HistogramSummary `json:"e2e"`
}

func count(c *obs.Counter) uint64 { return uint64(c.Value()) }

// Stats returns a snapshot of the store's gauges, counters and latency
// histograms.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	shed := make(map[string]uint64, 5)
	for _, r := range []ShedReason{ShedDepth, ShedBacklogCost, ShedTenantQuota, ShedTenantRate, ShedDraining} {
		if v := count(s.met.shedFor(r)); v > 0 {
			shed[string(r)] = v
		}
	}
	st := Stats{
		Pending:            s.pending,
		Leased:             len(s.leasedSet),
		Epoch:              s.epoch,
		Tenants:            len(s.ring),
		Replicas:           len(s.replicas),
		Draining:           s.draining || s.closed,
		Submitted:          count(s.met.submitted),
		Recovered:          count(s.met.recovered),
		JournalSkipped:     count(s.met.journalSkipped),
		JournalCompactions: count(s.met.compactions),
		Acquired:           count(s.met.acquired),
		Completed:          count(s.met.completed),
		Failed:             count(s.met.failed),
		Canceled:           count(s.met.canceled),
		Retried:            count(s.met.retried),
		Reclaimed:          count(s.met.reclaimed),
		Fenced:             count(s.met.fenced),
		Shed:               shed,
		BacklogCostSeconds: s.backlogSecs,
	}
	s.mu.Unlock()
	// Histograms snapshot under their own locks; don't hold s.mu.
	st.Wait = summarize(s.met.wait)
	st.Run = summarize(s.met.run)
	st.E2E = summarize(s.met.e2e)
	return st
}
