package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dpc/client"
	"dpc/internal/journal"
	"dpc/internal/metric"
	"dpc/internal/serve"
)

// serverEnv is an in-process serve.Server behind a real loopback HTTP
// listener, journaled with fsync, driven through client.Remote.
type serverEnv struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when the HTTP serve loop has returned
	base   string
	remote *client.Remote
}

// startServer starts a server journaling to dir; otherwise at defaults.
func startServer(dir string) (*serverEnv, error) {
	srv, err := serve.NewChecked(serve.Config{JournalDir: dir, JournalSync: true})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serverEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln)
	}()
	e.remote = client.NewRemote(e.base, client.RemoteOptions{})
	return e, nil
}

// close stops the listener, then drains and seals the server; it returns
// once the serve loop has exited.
func (e *serverEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	e.remote.Close()
	err := e.hs.Shutdown(ctx)
	<-e.served
	if serr := e.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// register loads the fixed query datasets.
func (e *serverEnv) register(ctx context.Context, d mixData) error {
	for _, name := range dsTables {
		if err := e.remote.RegisterDataset(ctx, name, d.tables[name]); err != nil {
			return fmt.Errorf("register %s: %w", name, err)
		}
	}
	if err := e.remote.RegisterUncertainDataset(ctx, dsNodes, d.ground, d.nodes); err != nil {
		return fmt.Errorf("register %s: %w", dsNodes, err)
	}
	return nil
}

// appendedRecords scrapes the journal's appended-record counter from
// /metrics.
func (e *serverEnv) appendedRecords(ctx context.Context) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", e.base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	const key = `dpc_journal_records_total{event="appended"} `
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %q line", strings.TrimSpace(key))
}

// Event kinds of the open-loop schedule.
const (
	evJob    = iota // a job on a fixed query dataset
	evCreate        // register an ingest dataset
	evAppend        // append to it
	evCold          // the one cold query of an ingest dataset
)

// blockPattern is one block of the schedule: one job of each fixed query
// (in mixData.queries order: four median jobs, a u-median and a center
// job) interleaved with one ingest dataset's register, two appends and
// cold query. Every block has the same composition, so a run's latency
// sample mixes the job kinds in the same proportions whatever its length,
// and its median falls among the median jobs, whose time is mostly solve
// time rather than scheduling and polling delays. Median jobs fall due
// 0.6 s apart and rarely overlap one another; the writes, the cold query
// and the light jobs fall due while one runs.
var blockPattern = []int{evJob, evCreate, evAppend, evJob, evJob, evJob, evAppend, evCold, evJob, evJob}

// mixBlocks is the number of whole schedule blocks a window of the given
// length offers at the workload's rate (at least one).
func mixBlocks(window time.Duration, rate float64) int {
	n := int(window.Seconds()*rate+float64(len(blockPattern))-1) / len(blockPattern)
	return max(n, 1)
}

// jobRec is one job of the run as the client saw it.
type jobRec struct {
	id       int // event number in the schedule; the spans of the job carry it
	in       instance
	query    int // index into mixData.queries; -1 for a cold ingest query
	due      time.Time
	sent     time.Time
	observed time.Time
	polls    int
	job      serve.Job
}

// mixRun is what one open-loop server-mix phase measured.
type mixRun struct {
	jobs      []jobRec
	writes    []time.Duration // due → acknowledged
	late      []time.Duration // how far each send ran behind its due time
	attempted int
	failed    int
	errs      []error
	start     time.Time
	end       time.Time
	gcPause   time.Duration
	records   []journal.Record // the run's journal, read after shutdown
	appended  int64            // dpc_journal_records_total{event="appended"}
	nWrites   int
}

// pollInterval spaces the poller's sweeps over outstanding jobs.
const pollInterval = 2 * time.Millisecond

// openLoop drives the server at d's fixed offered rate: one goroutine
// sends every event of the schedule at its due time, whether or not
// earlier jobs finished, and one goroutine polls submitted jobs until they
// finish. Job latency runs from the due time to the poll that fetched the
// finished job, so a stall also charges the events queued behind it.
func openLoop(ctx context.Context, e *serverEnv, d mixData, blocks int, rec *recorder) *mixRun {
	r := &mixRun{}
	nJobs := 0
	for _, ev := range blockPattern {
		if ev == evJob || ev == evCold {
			nJobs += blocks
		}
	}
	// Sized to every job of the schedule, so the sender never blocks on
	// the poller and stays on schedule.
	submitted := make(chan jobRec, nJobs)
	polled := make(chan []jobRec, 1)
	pollErrs := make(chan []error, 1)
	go func() {
		done, errs := poll(ctx, e.remote, submitted, rec)
		polled <- done
		pollErrs <- errs
	}()

	runtime.GC() // start every window from a collected heap
	gc0 := gcPauseTotal()
	r.start = time.Now()
	interval := time.Duration(float64(time.Second) / d.shape.rate)
	q, nSubmitted := 0, 0
	for b := 0; b < blocks; b++ {
		set := d.ingest[b]
		appends := 0
		for slot, ev := range blockPattern {
			due := r.start.Add(time.Duration(b*len(blockPattern)+slot) * interval)
			if w := time.Until(due); w > 0 {
				t := time.NewTimer(w)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
				}
			}
			sent := time.Now()
			r.late = append(r.late, sent.Sub(due))
			r.attempted++
			var err error
			switch ev {
			case evJob, evCold:
				jr := jobRec{id: r.attempted, query: -1, due: due, sent: sent}
				if ev == evJob {
					jr.query = q % len(d.queries)
					jr.in = d.queries[jr.query]
					q++
				} else {
					jr.in = set.cold
				}
				var s span
				if rec != nil {
					s = rec.open(jr.id, 0, "loadgen.submit", layerClient)
				}
				jr.job, err = e.remote.Submit(ctx, jr.in.spec)
				if rec != nil {
					rec.end(s)
				}
				if err == nil {
					submitted <- jr
					nSubmitted++
				}
			case evCreate, evAppend:
				var s span
				if rec != nil {
					s = rec.open(r.attempted, 0, "loadgen.write", layerClient)
				}
				if ev == evCreate {
					err = e.remote.RegisterDataset(ctx, set.name, set.parts[0])
				} else {
					appends++
					_, err = e.remote.AppendPoints(ctx, set.name, set.parts[appends])
				}
				if rec != nil {
					rec.end(s)
				}
				if err == nil {
					r.writes = append(r.writes, time.Since(due))
				}
				r.nWrites++
			}
			if err != nil {
				r.failed++
				r.errs = append(r.errs, err)
			}
		}
	}
	close(submitted)
	r.jobs = <-polled
	perrs := <-pollErrs
	r.end = time.Now()
	r.gcPause = gcPauseTotal() - gc0
	r.failed += len(perrs)
	r.errs = append(r.errs, perrs...)
	if lost := nSubmitted - len(r.jobs); lost > 0 {
		r.failed += lost
		r.errs = append(r.errs, fmt.Errorf("%d submitted jobs never finished", lost))
	}
	for _, j := range r.jobs {
		if j.job.Status != serve.StatusDone {
			r.failed++
			r.errs = append(r.errs, fmt.Errorf("job %s (%s) %s: %s", j.job.ID, j.in.label(), j.job.Status, j.job.Error))
		}
	}
	var err error
	if r.appended, err = e.appendedRecords(ctx); err != nil {
		r.errs = append(r.errs, err)
		r.failed++
	}
	return r
}

// poll fetches every submitted job until it reaches a terminal state,
// sweeping the outstanding set every pollInterval. It returns once the
// sender has closed submitted and nothing is outstanding, or ctx ends.
func poll(ctx context.Context, rc *client.Remote, submitted <-chan jobRec, rec *recorder) ([]jobRec, []error) {
	var done []jobRec
	var errs []error
	var out []jobRec
	open := true
	for open || len(out) > 0 {
		for drained := false; open && !drained; {
			select {
			case jr, ok := <-submitted:
				if !ok {
					open = false
				} else {
					out = append(out, jr)
				}
			default:
				drained = true
			}
		}
		keep := out[:0]
		for _, jr := range out {
			var s span
			if rec != nil {
				s = rec.open(jr.id, 0, "loadgen.poll", layerClient)
			}
			job, err := rc.Job(ctx, jr.job.ID)
			if rec != nil {
				rec.end(s)
			}
			jr.polls++
			if err != nil {
				if ctx.Err() != nil {
					return done, append(errs, ctx.Err())
				}
				errs = append(errs, err)
				keep = append(keep, jr)
				continue
			}
			switch job.Status {
			case serve.StatusDone, serve.StatusFailed, serve.StatusCanceled:
				jr.observed = time.Now()
				jr.job = job
				done = append(done, jr)
			default:
				keep = append(keep, jr)
			}
		}
		out = keep
		t := time.NewTimer(pollInterval)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return done, append(errs, ctx.Err())
		}
	}
	return done, errs
}

// responseOf converts a finished job to the client's response type.
func responseOf(job serve.Job) *client.Response {
	res := job.Result
	if res == nil {
		return nil
	}
	centers := make([]metric.Point, len(res.Centers))
	for i, row := range res.Centers {
		centers[i] = metric.Point(row)
	}
	return &client.Response{
		Centers:       centers,
		Cost:          res.Cost,
		CostKind:      res.CostKind,
		OutlierBudget: res.OutlierBudget,
		SiteBudgets:   res.SiteBudgets,
		Rounds:        res.Rounds,
		UpBytes:       res.UpBytes,
		DownBytes:     res.DownBytes,
	}
}

// checkMix checks every finished job of a run: the paper's guarantees,
// the recomputed cost, and one digest per (dataset, spec) across the run.
// It returns the number of failed checks.
func checkMix(r *mixRun, book *digestBook) int {
	failed := 0
	for _, j := range r.jobs {
		if j.job.Status != serve.StatusDone {
			continue
		}
		resp := responseOf(j.job)
		err := checkResponse(j.in, resp)
		if err == nil {
			err = book.observe(j.in.label(), digest(resp.Centers))
		}
		if err != nil {
			failed++
			r.errs = append(r.errs, err)
		}
	}
	return failed
}

// localEquivalence answers every (dataset, spec) pair the run queried with
// client.Local on the same points and checks that the centers are
// byte-identical to the server's. It runs outside the timed window and
// returns the number of pairs checked and failed.
func localEquivalence(ctx context.Context, d mixData, book *digestBook) (checked, failed int, errs []error) {
	local := client.NewLocal()
	ins := append([]instance(nil), d.queries...)
	for _, set := range d.ingest {
		ins = append(ins, set.cold)
	}
	for _, in := range ins {
		want, ok := book.first[in.label()]
		if !ok {
			continue // never queried in this run
		}
		checked++
		req := requestOf(in.spec, "")
		req.Dataset = ""
		req.Points, req.Ground, req.Nodes = in.points, in.ground, in.nodes
		resp, err := local.Do(ctx, req)
		if err == nil && digest(resp.Centers) != want {
			err = fmt.Errorf("%s: server centers %s, client.Local %s", in.label(), want, digest(resp.Centers))
		}
		if err != nil {
			failed++
			errs = append(errs, err)
		}
	}
	return checked, failed, errs
}

// readJournal reads back the records a closed server left in dir.
func readJournal(dir string) ([]journal.Record, error) {
	lg, res, err := journal.OpenDir(dir, journal.DirOptions{})
	if err != nil {
		return nil, err
	}
	return res.Records, lg.Close()
}

// Journal record kinds of the serving layer's on-disk format: the two
// that carry dataset writes (a registration and an append) and a job's
// finish.
const (
	recDatasetPut    journal.Kind = 1
	recDatasetAppend journal.Kind = 2
	recJobFinish     journal.Kind = 6
)

// finishedJobs returns the ids of the jobs with a finish record.
func finishedJobs(recs []journal.Record) map[string]bool {
	out := map[string]bool{}
	for _, rc := range recs {
		var fin struct {
			ID string `json:"id"`
		}
		if rc.Kind == recJobFinish && json.Unmarshal(rc.Payload, &fin) == nil {
			out[fin.ID] = true
		}
	}
	return out
}

// writeRecords returns the journal records the run's ingest writes made.
func writeRecords(recs []journal.Record) []journal.Record {
	var out []journal.Record
	for _, rc := range recs {
		if rc.Kind != recDatasetPut && rc.Kind != recDatasetAppend {
			continue
		}
		var named struct {
			Name string `json:"name"`
		}
		if json.Unmarshal(rc.Payload, &named) == nil && strings.HasPrefix(named.Name, "ingest-") {
			out = append(out, rc)
		}
	}
	return out
}

// replayAppends appends records to a fresh fsyncing journal in dir,
// timing each Append.
func replayAppends(dir string, recs []journal.Record, limit int) ([]float64, error) {
	lg, _, err := journal.OpenDir(dir, journal.DirOptions{Sync: true})
	if err != nil {
		return nil, err
	}
	var ts []float64
	for i, rc := range recs {
		if i == limit {
			break
		}
		t0 := time.Now()
		if _, err := lg.Append(rc.Kind, rc.Payload); err != nil {
			lg.Close()
			return nil, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return ts, lg.Close()
}

// mixEnv is one set-up server-mix phase: generated inputs and a started
// server with the query datasets registered.
type mixEnv struct {
	d   mixData
	e   *serverEnv
	dir string
}

// setupMix generates the inputs from seed, starts a server journaling to a
// fresh directory under tmp and registers the query datasets.
func setupMix(ctx context.Context, tmp string, sz size, seed int64, blocks int) (*mixEnv, error) {
	m := &mixEnv{d: makeMix(sz, seed, blocks)}
	var err error
	if m.dir, err = os.MkdirTemp(tmp, "journal-"); err != nil {
		return nil, err
	}
	if m.e, err = startServer(m.dir); err != nil {
		os.RemoveAll(m.dir)
		return nil, err
	}
	if err := m.e.register(ctx, m.d); err != nil {
		m.discard()
		return nil, err
	}
	return m, nil
}

// discard stops the server and deletes its journal.
func (m *mixEnv) discard() error {
	err := m.e.close()
	if rerr := os.RemoveAll(m.dir); err == nil {
		err = rerr
	}
	return err
}

// runMixPhase runs the open loop over blocks blocks, shuts the server down
// and checks the run, reading back its journal.
func runMixPhase(ctx context.Context, m *mixEnv, blocks int, rec *recorder, book *digestBook) (*mixRun, error) {
	r := openLoop(ctx, m.e, m.d, blocks, rec)
	if err := m.e.close(); err != nil {
		os.RemoveAll(m.dir)
		return nil, err
	}
	var err error
	r.records, err = readJournal(m.dir)
	if rerr := os.RemoveAll(m.dir); err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	// The journal must hold every record /metrics counted and, once the
	// server has drained, the finish record of every job the client saw
	// finish. (The count is scraped while the server runs, and a job shows
	// as done just before its finish record is appended, so the journal
	// may hold more records than were counted.)
	if int64(len(r.records)) < r.appended {
		r.failed++
		r.errs = append(r.errs, fmt.Errorf("journal holds %d records, /metrics counted %d appended", len(r.records), r.appended))
	}
	journaled := finishedJobs(r.records)
	for _, j := range r.jobs {
		if !journaled[j.job.ID] {
			r.failed++
			r.errs = append(r.errs, fmt.Errorf("job %s finished but has no finish record in the journal", j.job.ID))
		}
	}
	r.failed += checkMix(r, book)
	return r, nil
}
