package execstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The store journal is a JSON-lines file: one record per line, either a
// "submit" (full task description) or a terminal "state" transition.
// Leases are deliberately NOT journaled — they are volatile
// coordination state, and recording every acquire/renew would make the
// journal a write amplifier. On replay, every submitted task
// without a terminal record is pending again: a task that was LEASED at
// crash time simply re-runs, and the epoch fence (resumed past the
// highest journaled epoch) guarantees any straggler completion from
// before the crash cannot be accepted twice.
type journalRecord struct {
	Op       string          `json:"op"` // "submit" | "state"
	ID       string          `json:"id"`
	Tenant   string          `json:"tenant,omitempty"`
	Kind     string          `json:"kind,omitempty"`
	Priority int             `json:"priority,omitempty"`
	Retries  int             `json:"retries,omitempty"`
	Payload  json.RawMessage `json:"payload,omitempty"`
	State    State           `json:"state,omitempty"`
	Err      string          `json:"error,omitempty"`
	Epoch    uint64          `json:"epoch,omitempty"`
	Time     time.Time       `json:"t"`
}

func submitRecord(t Task, at time.Time) journalRecord {
	return journalRecord{
		Op:       "submit",
		ID:       t.ID,
		Tenant:   t.Tenant,
		Kind:     t.Kind,
		Priority: t.Priority,
		Retries:  t.Retries,
		Payload:  t.Payload,
		Time:     at,
	}
}

func stateRecord(id string, s State, errMsg string, epoch uint64, at time.Time) journalRecord {
	return journalRecord{Op: "state", ID: id, State: s, Err: errMsg, Epoch: epoch, Time: at}
}

// journal appends records to an open file. Append errors are recorded,
// not returned: losing journal durability must not fail live traffic.
type journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	bytes   int64
	lastErr error
}

func (j *journal) append(rec journalRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendLocked(rec)
}

func (j *journal) appendLocked(rec journalRecord) {
	if j.f == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		j.lastErr = err
		return
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		j.lastErr = err
		return
	}
	j.bytes += int64(len(line))
}

func (j *journal) size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bytes
}

// compact atomically rewrites the journal down to the given live
// records via temp file + rename, then reopens for appends; a crash at
// any point leaves either the old complete journal or the new one.
func (j *journal) compact(live []journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.lastErr
	}
	tmp := j.path + ".compact.tmp"
	f, err := os.Create(tmp)
	if err != nil {
		j.lastErr = err
		return err
	}
	var written int64
	for _, rec := range live {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			j.lastErr = err
			return err
		}
		line = append(line, '\n')
		if _, err := f.Write(line); err != nil {
			f.Close()
			os.Remove(tmp)
			j.lastErr = err
			return err
		}
		written += int64(len(line))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		j.lastErr = err
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		j.lastErr = err
		return err
	}
	old := j.f
	nf, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.lastErr = err
		return err
	}
	old.Close()
	j.f = nf
	j.bytes = written
	return nil
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.lastErr
	}
	err := j.f.Close()
	j.f = nil
	if j.lastErr != nil {
		return j.lastErr
	}
	return err
}

// replayJournal reads path and returns tasks without a terminal record
// (in submit order), the highest epoch mentioned by any terminal record
// (the fence resumes past it), and how many corrupt lines were skipped.
// A missing file means no pending work. Torn or garbled lines are
// skipped and counted, never fatal — one bad line must not cost the
// whole backlog.
func replayJournal(path string) ([]Task, uint64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, fmt.Errorf("execstore: open journal: %w", err)
	}
	defer f.Close()

	type entry struct {
		task Task
		last State
	}
	byID := make(map[string]*entry)
	var order []string
	var maxEpoch uint64
	skipped := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			skipped++
			continue
		}
		switch rec.Op {
		case "submit":
			if _, dup := byID[rec.ID]; dup {
				continue
			}
			byID[rec.ID] = &entry{
				task: Task{
					ID:       rec.ID,
					Tenant:   rec.Tenant,
					Kind:     rec.Kind,
					Priority: rec.Priority,
					Retries:  rec.Retries,
					Payload:  rec.Payload,
				},
				last: StatePending,
			}
			order = append(order, rec.ID)
		case "state":
			if rec.Epoch > maxEpoch {
				maxEpoch = rec.Epoch
			}
			if e, ok := byID[rec.ID]; ok {
				e.last = rec.State
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, maxEpoch, skipped, fmt.Errorf("execstore: read journal: %w", err)
	}
	var pending []Task
	for _, id := range order {
		if e := byID[id]; !e.last.Terminal() {
			pending = append(pending, e.task)
		}
	}
	return pending, maxEpoch, skipped, nil
}

// resetJournal truncates path down to the pending submits (startup
// compaction) and returns the open journal for subsequent appends.
func resetJournal(path string, pending []Task) (*journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("execstore: create journal: %w", err)
	}
	j := &journal{path: path, f: f}
	now := time.Now()
	for _, t := range pending {
		j.append(submitRecord(t, now))
	}
	if j.lastErr != nil {
		f.Close()
		return nil, fmt.Errorf("execstore: compact journal: %w", j.lastErr)
	}
	return j, nil
}

// sortViews orders task snapshots by submission time, then ID.
func sortViews(vs []TaskView) {
	sort.Slice(vs, func(i, j int) bool {
		if !vs[i].Submitted.Equal(vs[j].Submitted) {
			return vs[i].Submitted.Before(vs[j].Submitted)
		}
		return vs[i].ID < vs[j].ID
	})
}

// sortTasksBySeq orders live tasks by admission sequence for stable
// compaction output.
func sortTasksBySeq(ts []*task) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].seq < ts[j].seq })
}
