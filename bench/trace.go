package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer (or a task
// record of provenance.json converted after the fact). The layer is the
// part of Name before the first dot; spans of one request or run share
// an ID. Parent is an index into the recorder, -1 for a root.
type span struct {
	Name       string
	ID         string
	Start, End time.Time
	Parent     int
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs stay free of its cost.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its handle; end closes it.
func (r *recorder) begin(name, id string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Start: now, Parent: parent})
	return len(r.spans) - 1
}

func (r *recorder) end(h int) {
	if r == nil || h < 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[h].End = now
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a task
// record, a store timestamp).
func (r *recorder) add(name, id string, parent int, start, end time.Time) int {
	if r == nil || start.IsZero() || end.Before(start) {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Start: start, End: end, Parent: parent})
	return len(r.spans) - 1
}

// spanCost calibrates the recorder: seconds per begin/end pair.
// trace.span_cost_pct is a run's span count times this, over the
// wall-clock traced. It is what the recorder adds by construction, not the
// difference between a traced and an untraced run: that difference is
// within the run-to-run spread and says nothing about the recorder.
func spanCost() float64 {
	const pairs = 200000
	probe := &recorder{spans: make([]span, 0, pairs)}
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		probe.end(probe.begin("bench.probe", "", -1))
	}
	return time.Since(t0).Seconds() / pairs
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer string  `json:"layer"`
	Spans int     `json:"spans"`
	BusyS float64 `json:"busy_s"`
	SelfS float64 `json:"self_s"`
}

// uncovered is the row of the per-layer table for wall-clock during
// which only the benchmark's own spans ran (bench.*: verification,
// bookkeeping, an open-loop client waiting for its next due time): the
// part of the run no layer accounts for.
const uncovered = "(uncovered)"

// stageRow says how much of one stage's wall-clock, all rounds
// together, was uncovered.
type stageRow struct {
	Stage      string  `json:"stage"`
	WallS      float64 `json:"wall_s"`
	UncoveredS float64 `json:"uncovered_s"`
}

// selfTimes attributes every instant covered by a root span to the
// spans running at that instant that have no running child: a span's
// self time is its duration minus what its children cover. Where
// siblings overlap (two workers, two clients) the overlapped interval is
// split equally between them, so the self times of a tree sum to the
// wall-clock its root covers and the table reads as shares of the run.
func (r *recorder) selfTimes() (self []float64, wall float64) {
	type edge struct {
		at   time.Time
		idx  int
		open bool
	}
	edges := make([]edge, 0, 2*len(r.spans))
	for i, s := range r.spans {
		if s.End.IsZero() {
			continue
		}
		edges = append(edges, edge{s.Start, i, true}, edge{s.End, i, false})
	}
	// closes before opens at the same instant, so back-to-back spans
	// never count as overlapping
	sort.SliceStable(edges, func(a, b int) bool {
		if !edges[a].at.Equal(edges[b].at) {
			return edges[a].at.Before(edges[b].at)
		}
		return !edges[a].open && edges[b].open
	})
	self = make([]float64, len(r.spans))
	running := make([]bool, len(r.spans))
	kids := make([]int, len(r.spans)) // running children per span
	leaves := map[int]bool{}          // running spans with no running child
	var last time.Time
	for _, e := range edges {
		if n := len(leaves); n > 0 {
			dt := e.at.Sub(last).Seconds()
			wall += dt
			for i := range leaves {
				self[i] += dt / float64(n)
			}
		}
		last = e.at
		p := r.spans[e.idx].Parent
		if e.open {
			running[e.idx] = true
			if kids[e.idx] == 0 {
				leaves[e.idx] = true
			}
			if p >= 0 {
				kids[p]++
				delete(leaves, p)
			}
		} else {
			running[e.idx] = false
			delete(leaves, e.idx)
			if p >= 0 {
				kids[p]--
				if kids[p] == 0 && running[p] {
					leaves[p] = true
				}
			}
		}
	}
	return self, wall
}

// layerOf is the part of a span name before the first dot, with the
// benchmark's own spans filed as uncovered.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	if layer == "bench" {
		return uncovered
	}
	return layer
}

// layerTable sums busy and self time by layer, largest self time first
// and the uncovered row last, and the uncovered share of every root span
// by its ID (the stage's name, or "replay").
func (r *recorder) layerTable() (rows []layerRow, stages []stageRow, wall float64) {
	self, wall := r.selfTimes()
	byLayer := map[string]*layerRow{}
	byStage := map[string]*stageRow{}
	for i, s := range r.spans {
		if s.End.IsZero() {
			continue
		}
		layer := layerOf(s.Name)
		row := byLayer[layer]
		if row == nil {
			row = &layerRow{Layer: layer}
			byLayer[layer] = row
		}
		row.Spans++
		row.BusyS += s.End.Sub(s.Start).Seconds()
		row.SelfS += self[i]

		root := i
		for r.spans[root].Parent >= 0 {
			root = r.spans[root].Parent
		}
		st := byStage[r.spans[root].ID]
		if st == nil {
			st = &stageRow{Stage: r.spans[root].ID}
			byStage[st.Stage] = st
		}
		st.WallS += self[i]
		if layer == uncovered {
			st.UncoveredS += self[i]
		}
	}
	for _, row := range byLayer {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(a, b int) bool {
		if ua, ub := rows[a].Layer == uncovered, rows[b].Layer == uncovered; ua != ub {
			return ub
		}
		return rows[a].SelfS > rows[b].SelfS
	})
	for _, st := range byStage {
		stages = append(stages, *st)
	}
	sort.Slice(stages, func(a, b int) bool { return stages[a].Stage < stages[b].Stage })
	return rows, stages, wall
}

// writeChrome writes the spans as Chrome trace_event JSON (open in
// chrome://tracing or ui.perfetto.dev). A track (tid) is a child of a
// root with everything below it: one workflow run, one client lane.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	if len(r.spans) == 0 {
		return nil
	}
	t0 := r.spans[0].Start
	for _, s := range r.spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End.IsZero() {
			continue
		}
		track := i
		for p := r.spans[track].Parent; p >= 0 && r.spans[p].Parent >= 0; p = r.spans[track].Parent {
			track = p
		}
		cat, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts:  float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: track, Args: map[string]string{"id": s.ID},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
