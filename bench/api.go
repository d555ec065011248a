package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/execstore"
	"repro/internal/hpcwaas"
	"repro/internal/tosca"
)

// apiFixture is north-star path (b): one journaled execstore under two
// hpcwaas frontends on loopback HTTP, and a pool of seeded payloads
// whose digests the benchmark knows in advance.
type apiFixture struct {
	store   *execstore.Store
	journal string
	fronts  []*hpcwaas.Frontend
	servers []*http.Server
	urls    []string
	hc      *http.Client

	msgs     []string
	digests  map[string]string
	accepted uint64
}

// fnvDigest is the application: a CPU-only FNV-1a loop over the
// message, no sleep, so what the stage measures is the control plane.
func fnvDigest(msg string, rounds int) string {
	h := uint64(14695981039346656037)
	for r := 0; r < rounds; r++ {
		for i := 0; i < len(msg); i++ {
			h = (h ^ uint64(msg[i])) * 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

// apiCapacity bounds pending and retained tasks far above anything one
// run submits: admission must never shed and every record must still be
// readable when the run verifies it.
const apiCapacity = 1 << 18

func (b *bench) setupAPI() (fx *apiFixture, err error) {
	fx = &apiFixture{digests: map[string]string{}}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	dir := filepath.Join(b.root, "api")
	if err := mkdir(dir); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(b.seed))
	rounds := b.sz.appRounds
	for i := 0; i < 256; i++ {
		msg := fmt.Sprintf("payload-%016x-%016x", rng.Uint64(), rng.Uint64())
		fx.msgs = append(fx.msgs, msg)
		fx.digests[msg] = fnvDigest(msg, rounds)
	}
	fx.journal = filepath.Join(dir, "journal")
	fx.store, err = execstore.Open(execstore.Config{
		MaxPending: apiCapacity, Retention: apiCapacity,
		JournalPath: fx.journal, JournalMaxBytes: -1,
	})
	if err != nil {
		return nil, err
	}
	registry := hpcwaas.NewRegistry()
	err = registry.Register(hpcwaas.Entry{
		Name: "fnv", Version: "1", Description: "deterministic CPU-only digest",
		Topology: tosca.ClimateTopology("zeus"),
		App: func(p map[string]string) (map[string]string, error) {
			return map[string]string{"digest": fnvDigest(p["msg"], rounds)}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < clients; i++ {
		f, err := hpcwaas.NewFrontend(hpcwaas.FrontendConfig{
			ID: fmt.Sprintf("api-%d", i), Store: fx.store, Registry: registry, Workers: clients,
		})
		if err != nil {
			return nil, err
		}
		fx.fronts = append(fx.fronts, f)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &http.Server{Handler: f.Handler()}
		fx.servers = append(fx.servers, srv)
		fx.urls = append(fx.urls, "http://"+ln.Addr().String())
		go srv.Serve(ln) // returns once srv.Close runs in fx.close
	}
	fx.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	return fx, nil
}

func (fx *apiFixture) close() {
	if fx.hc != nil {
		fx.hc.CloseIdleConnections()
	}
	for _, s := range fx.servers {
		s.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, f := range fx.fronts {
		if f.Drain(ctx) != nil {
			f.KillExecutor()
		}
	}
	if fx.store != nil {
		fx.store.Close()
	}
}

// submission is what the generator knows about one request.
type submission struct {
	msg             string
	id              string
	due, sent, done time.Time
	err             error
}

// submit POSTs one execution to the client's own replica over its
// keep-alive connection.
func (fx *apiFixture) submit(client int, s *submission) {
	body := `{"workflow":"fnv","params":{"msg":"` + s.msg + `"}}`
	s.sent = time.Now()
	resp, err := fx.hc.Post(fx.urls[client%len(fx.urls)]+"/api/executions", "application/json", strings.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	var ex struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ex)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	switch {
	case resp.StatusCode != http.StatusAccepted:
		s.err = fmt.Errorf("submit refused: %s", resp.Status)
	case err != nil:
		s.err = err
	default:
		s.id = ex.ID
	}
}

// fire sends n submissions from P connections. With rate > 0 it is an
// open loop: submission i is due at start + i/rate whatever happened to
// the ones before it. With rate = 0 every connection sends as fast as
// it gets answers.
func (fx *apiFixture) fire(n, rate int, first int) []submission {
	subs := make([]submission, n)
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				s := &subs[i]
				s.msg = fx.msgs[(first+i)%len(fx.msgs)]
				s.due = time.Now()
				if rate > 0 {
					s.due = start.Add(time.Duration(float64(i) / float64(rate) * float64(time.Second)))
					time.Sleep(time.Until(s.due))
				}
				fx.submit(c, s)
			}
		}(c)
	}
	wg.Wait()
	return subs
}

// settle waits for the store to go idle and checks every submission:
// accepted, DONE in the store with the digest of its own message. It
// returns the terminal views, index-aligned with subs.
func (b *bench) settle(fx *apiFixture, subs []submission, what string) []execstore.TaskView {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := fx.store.WaitIdle(ctx); err != nil {
		b.col.op(fmt.Errorf("store did not go idle: %w", err), what)
	}
	views := make([]execstore.TaskView, len(subs))
	for i := range subs {
		s := &subs[i]
		err := s.err
		if err == nil {
			fx.accepted++
			var ok bool
			if views[i], ok = fx.store.Get(s.id); !ok {
				err = fmt.Errorf("execution %s is not in the store", s.id)
			} else {
				err = checkDigest(views[i].State == execstore.StateDone, views[i].Output, fx.digests[s.msg], s.id)
			}
		}
		b.col.op(err, what)
	}
	return views
}

func checkDigest(done bool, output []byte, want, id string) error {
	if !done {
		return fmt.Errorf("execution %s is not DONE", id)
	}
	var out struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(output, &out); err != nil {
		return fmt.Errorf("execution %s: %w", id, err)
	}
	if out.Digest != want {
		return fmt.Errorf("execution %s has digest %q, want %q", id, out.Digest, want)
	}
	return nil
}

// getSampleMax bounds the executions read back over HTTP per phase and
// round; every execution is checked in the store, a strided sample of
// them also through GET on the replica that did not accept it.
const getSampleMax = 100

// minPhase is the least number of submissions in a phase.
const minPhase = 20

// readBack GETs a strided sample of the executions from the other
// replica and returns the GET latencies in ms.
func (b *bench) readBack(fx *apiFixture, subs []submission) []float64 {
	stride := (len(subs) + getSampleMax - 1) / getSampleMax
	var lats []float64
	for i := 0; i < len(subs); i += stride {
		s := &subs[i]
		if s.err != nil {
			continue
		}
		t0 := time.Now()
		resp, err := fx.hc.Get(fx.urls[(i%clients+1)%len(fx.urls)] + "/api/executions/" + s.id)
		if err == nil {
			var ex struct {
				Status  string            `json:"status"`
				Results map[string]string `json:"results"`
			}
			err = json.NewDecoder(resp.Body).Decode(&ex)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lats = append(lats, ms(time.Since(t0).Seconds()))
			if err == nil && (ex.Status != "DONE" || ex.Results["digest"] != fx.digests[s.msg]) {
				err = fmt.Errorf("GET %s on the other replica: status %s digest %q", s.id, ex.Status, ex.Results["digest"])
			}
		}
		b.col.op(err, "read back")
	}
	return lats
}

// spans records what is known about each request after the phase has
// ended, from timestamps taken anyway: nothing is added to the timed
// path.
func (b *bench) apiSpans(stage int, subs []submission, views []execstore.TaskView) {
	if b.rec == nil {
		return
	}
	lanes := make([]int, clients)
	for c := range lanes {
		lanes[c] = b.rec.add("bench.client", fmt.Sprint(c), stage, subs[0].due, subs[len(subs)-1].done)
	}
	for i := range subs {
		s, v := &subs[i], &views[i]
		if s.err != nil {
			continue
		}
		end := s.done
		if v.Finished.After(end) {
			end = v.Finished
		}
		ex := b.rec.add("bench.exec", s.id, lanes[i%clients], s.due, end)
		b.rec.add("gen.late", s.id, ex, s.due, s.sent)
		sub := b.rec.add("hpcwaas.submit", s.id, ex, s.sent, s.done)
		b.rec.add("execstore.wait", s.id, sub, v.Submitted, v.Started)
		b.rec.add("execstore.run", s.id, sub, v.Started, v.Finished)
	}
}

// paced is one open-loop phase at a fixed rate, every request timed
// from the instant it was due. The top rate feeds exec_p50_ms and
// exec_p95_ms; the lower one only hpcwaas.exec_p99_ms_r1000. It returns
// whether nothing was refused and no backlog stood when the last answer
// came back, which with the latency limit makes hpcwaas.rate_ok.
func (b *bench) paced(fx *apiFixture, stage, rate int, seconds float64, top bool) bool {
	n := max(int(float64(rate)*seconds), minPhase)
	subs := fx.fire(n, rate, int(b.nextID()))
	backlog := fx.store.Stats()
	views := b.settle(fx, subs, fmt.Sprintf("paced %d/s", rate))
	done := 0
	for i := range subs {
		s, v := &subs[i], &views[i]
		if s.err != nil || v.Finished.IsZero() {
			continue
		}
		done++
		exec := ms(v.Finished.Sub(s.due).Seconds())
		if !top {
			b.col.sample("exec_low_ms", exec)
			continue
		}
		b.col.sample("exec_ms", exec)
		b.col.sample("submit_ms", ms(s.done.Sub(s.due).Seconds()))
		b.col.sample("late_ms", ms(s.sent.Sub(s.due).Seconds()))
		b.col.sample("wait_ms", ms(v.Started.Sub(v.Submitted).Seconds()))
		b.col.sample("run_ms", ms(v.Finished.Sub(v.Started).Seconds()))
	}
	if top {
		for _, g := range b.readBack(fx, subs) {
			b.col.sample("get_ms", g)
		}
	}
	b.apiSpans(stage, subs, views)
	return done == n && float64(backlog.Pending+backlog.Leased) <= float64(rate)*latencyLimitMS/1e3
}

// apiStage is one round of the three phases of north-star path (b):
// paced at the lower rate, paced at the top rate, then a drain of
// submissions as fast as the connections allow, timed until the last one
// is terminal.
func (b *bench) apiStage(fx *apiFixture, seconds float64) {
	stage := b.rec.begin("bench.stage", "api-exec", -1)
	defer b.rec.end(stage)
	// the lower rate gets the larger share: its p99 needs a thousand
	// samples from a control stage too
	for i, rate := range b.sz.rates {
		top := i == len(b.sz.rates)-1
		share := map[bool]float64{false: 0.45, true: 0.30}[top]
		kept := 0.0
		if b.paced(fx, stage, rate, share*seconds, top) {
			kept = 1
		}
		b.col.sample(fmt.Sprintf("kept_%d", rate), kept)
	}

	n := max(int(0.25*seconds*float64(b.sz.drainNominal)), minPhase)
	t0 := time.Now()
	subs := fx.fire(n, 0, int(b.nextID()))
	views := b.settle(fx, subs, "drain")
	last := t0
	for i := range views {
		if views[i].Finished.After(last) {
			last = views[i].Finished
		}
	}
	b.col.perRound("exec_drain_per_s", float64(n)/last.Sub(t0).Seconds(), n)
	b.readBack(fx, subs)
	b.apiSpans(stage, subs, views)

	st := fx.store.Stats()
	var shed uint64
	for _, v := range st.Shed {
		shed += v
	}
	if st.Completed != fx.accepted || st.Fenced != 0 || st.Reclaimed != 0 || shed != 0 {
		b.col.op(fmt.Errorf("store completed %d of %d accepted, fenced %d, reclaimed %d, shed %d",
			st.Completed, fx.accepted, st.Fenced, st.Reclaimed, shed), "store accounting")
	}
	// cumulative over the rounds: the last round's reading stands
	b.col.set("execstore.shed", float64(shed), 1)
	b.col.set("execstore.reclaimed", float64(st.Reclaimed), 1)
	b.col.set("execstore.fenced", float64(st.Fenced), 1)
	b.col.set("execstore.retried", float64(st.Retried), 1)
	if fi, err := os.Stat(fx.journal); err == nil && st.Submitted > 0 {
		b.col.set("execstore.journal_bytes_per_task", float64(fi.Size())/float64(st.Submitted), int(st.Submitted))
	}
}

// rateOK is the highest paced rate that met the latency limit: p99 of
// due-to-terminal latency over all rounds within latencyLimitMS, and in
// most rounds nothing refused and no standing backlog. A miss is a
// reading, not a failed operation: on a shared sandbox a busy neighbour
// can halve the capacity for a few seconds, and failed has to mean wrong,
// refused or errored.
func (b *bench) rateOK() float64 {
	ok := 0
	for i, rate := range b.sz.rates {
		series := map[bool]string{false: "exec_low_ms", true: "exec_ms"}[i == len(b.sz.rates)-1]
		kept := b.col.series[fmt.Sprintf("kept_%d", rate)]
		if quantile(b.col.series[series], 0.99) <= latencyLimitMS && 2*sum(kept) > float64(len(kept)) {
			ok = rate
		}
	}
	return float64(ok)
}
