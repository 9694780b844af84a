package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"letdma/internal/dma"
	"letdma/internal/experiments"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/serve"
	"letdma/internal/sysgen"
	"letdma/internal/verify"
)

// The traffic mix below is assumed, not measured: no recorded letdmad
// traffic exists to take it from. README.md gives the reason for each
// value; -hit-share varies the one the gated metrics depend on most.
const (
	// daemonWorkers is the daemon's solver worker count.
	daemonWorkers = 2
	// batchBudget is a batch job's MILP time limit and the daemon's
	// CertTimeLimit.
	batchBudget = 500 * time.Millisecond
	// defaultHitShare is the share of interactive requests that resubmit
	// a completed spec.
	defaultHitShare = 0.25
	// resubmitPool is how many recently completed specs the interactive
	// client keeps for resubmission.
	resubmitPool = 256
	// defaultBatchJobs is the number of batch jobs.
	defaultBatchJobs = 24
)

// seedStride separates the generator seeds of different workload seeds.
const seedStride = 1_000_003

// member is one generated system with its expected outcome.
type member struct {
	name             string
	sys              *model.System
	expectInfeasible bool
}

// generate builds member i of the stream for the workload seed: the
// given sysgen families in turn.
func generate(seed int64, i int, families []sysgen.Family) (member, error) {
	sc, err := sysgen.Generate(seed*seedStride+int64(i/len(families)), families[i%len(families)])
	if err != nil {
		return member{}, err
	}
	return member{sc.Name, sc.Sys, sc.ExpectInfeasible}, nil
}

// daemon is one in-process letdmad: a serve.Server with its journal in a
// fresh directory, served on loopback.
type daemon struct {
	dir string
	srv *serve.Server
	ts  *httptest.Server
}

func startDaemon(cfg config) (*daemon, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "service-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Workers:       daemonWorkers,
		JournalPath:   filepath.Join(dir, "journal.jsonl"),
		CertTimeLimit: batchBudget,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	return &daemon{dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// warmUp sends one comb job, untimed.
func (d *daemon) warmUp() error {
	cl := newClient(d.ts.URL)
	defer cl.close()
	body, err := specBody(serve.JobSpec{Lite: true})
	if err == nil {
		_, err = cl.submit(body)
	}
	if err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	return nil
}

// stop closes the listener, drains the workers and removes the journal.
func (d *daemon) stop() {
	d.ts.Close()
	if err := d.srv.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "letdmabench: daemon shutdown:", err)
	}
	os.RemoveAll(d.dir)
}

// client is one closed-loop client holding one connection.
type client struct {
	url  string
	http *http.Client
}

func newClient(base string) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{url: base + "/jobs/batch?wait=1", http: &http.Client{Transport: t}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// specBody is the one-spec POST /jobs/batch body for spec.
func specBody(spec serve.JobSpec) ([]byte, error) {
	return json.Marshal(map[string][]serve.JobSpec{"jobs": {spec}})
}

// submit sends one batch request and waits for the job's terminal state.
// Any HTTP status but 200 and any per-spec rejection is an error.
func (c *client) submit(body []byte) (*serve.JobStatus, error) {
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var reply struct {
		Jobs []struct {
			Status *serve.JobStatus `json:"status"`
			Error  string           `json:"error"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(data, &reply); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	switch {
	case len(reply.Jobs) != 1:
		return nil, fmt.Errorf("reply has %d entries, want 1", len(reply.Jobs))
	case reply.Jobs[0].Error != "":
		return nil, fmt.Errorf("spec rejected: %s", reply.Jobs[0].Error)
	case reply.Jobs[0].Status == nil || reply.Jobs[0].Status.Result == nil:
		return nil, fmt.Errorf("reply has no job result")
	}
	return reply.Jobs[0].Status, nil
}

// systemSpec is a job spec carrying m's system as model JSON.
func systemSpec(m member) (serve.JobSpec, error) {
	var buf bytes.Buffer
	if err := m.sys.ToJSON(&buf); err != nil {
		return serve.JobSpec{}, err
	}
	return serve.JobSpec{System: buf.Bytes()}, nil
}

// serviceFamilies are the sysgen families whose systems the daemon can
// schedule; the single-core family is rejected by design.
func serviceFamilies() []sysgen.Family {
	var out []sysgen.Family
	for _, f := range sysgen.Families() {
		if f != sysgen.SingleCore {
			out = append(out, f)
		}
	}
	return out
}

// batchStream offsets the batch client's generator index so its systems
// differ from the interactive client's.
const batchStream = 6 << 20

// clientRun is what one client measured.
type clientRun struct {
	o       outcome
	lat     []time.Duration
	proofs  int
	results int
	// batch are the batch client's systems, re-solved in process by the
	// traced run.
	batch []member
}

// service is service-mix's set-up: a started daemon and the batch
// client's requests.
type service struct {
	d     *daemon
	batch []batchJob
}

// batchJob is one batch request: a certified FastSearch OBJ-DMAT job on a
// seeded sysgen scenario, one worker, under the small batch budget.
type batchJob struct {
	m    member
	body []byte
	err  error
}

// batchJobs generates the batch client's requests for the workload seed.
// A request that cannot be built keeps its error, counted when it is due.
func batchJobs(cfg config) []batchJob {
	fams := serviceFamilies()
	out := make([]batchJob, cfg.batchJobs)
	for i := range out {
		j := &out[i]
		j.m, j.err = generate(cfg.seed, batchStream+i, fams)
		if j.err != nil {
			continue
		}
		var spec serve.JobSpec
		if spec, j.err = systemSpec(j.m); j.err == nil {
			spec.Solver, spec.Objective, spec.Fast = "milp", "dmat", true
			spec.Workers, spec.MILPTimeLimit = 1, batchBudget
			j.body, j.err = specBody(spec)
		}
	}
	return out
}

// runService is the service-mix workload: an in-process letdmad serving
// two closed-loop clients one after the other. The interactive client
// sends comb jobs for cfg.seconds; then the batch client sends
// cfg.batchJobs certified FastSearch OBJ-DMAT jobs. The service's op is
// an interactive job; batch jobs are reported on their own. Set-up starts
// the daemon and generates the batch requests.
func runService(cfg config, tr *tracer, c *counters) (*outcome, error) {
	setup := func() (service, error) {
		d, err := startDaemon(cfg)
		if err != nil {
			return service{}, err
		}
		return service{d, batchJobs(cfg)}, nil
	}
	sv, setupTimes, err := repeatSetup(cfg, setup, func(sv service) { sv.d.stop() })
	if err != nil {
		return nil, err
	}
	d := sv.d
	if err := d.warmUp(); err != nil {
		d.stop()
		return nil, err
	}
	var inter, batch clientRun
	start := time.Now()
	interactiveClient(cfg, d.ts.URL, start.Add(cfg.seconds), tr, c, &inter)
	interWall := time.Since(start)
	batchClient(d.ts.URL, sv.batch, tr, c, &batch)
	wall := time.Since(start)
	d.stop()

	o := &outcome{counts: map[string]int{}, wall: interWall, ops: len(inter.lat)}
	o.merge(&inter.o)
	o.merge(&batch.o)
	if o.ops == 0 {
		return nil, errNoOps
	}
	il, bl := seconds(inter.lat), seconds(batch.lat)
	jobs := len(il) + len(bl)
	o.metric("setup_s", "s", quantile(seconds(setupTimes), 0.5), len(setupTimes))
	o.metric("job_s.p50", "s", quantile(il, 0.5), len(il))
	o.metric("job_s.p99", "s", quantile(il, 0.99), len(il))
	o.metric("milp_job_s.p50", "s", quantile(bl, 0.5), len(bl))
	o.metric("jobs_per_s", "1/s", float64(jobs)/wall.Seconds(), jobs)
	o.metric("proved_share", "ratio", share(batch.proofs, batch.results), batch.results)
	o.metric("fail_share", "ratio", share(o.failed, o.attempted), o.attempted)
	o.metric("hit_share", "ratio", share(inter.o.counts["hit"], len(il)), len(il))
	o.metric("ops_per_s", "1/s", float64(len(il))/interWall.Seconds(), len(il))
	o.metric("op_s.p50", "s", quantile(il, 0.5), len(il))
	o.metric("op_s.p99", "s", quantile(il, 0.99), len(il))
	if tr != nil {
		rerunBatch(cfg, tr, c, batch.batch, o)
	}
	return o, nil
}

// interactiveClient sends comb jobs on new seeded systems (journal
// writes) and, with probability cfg.hitShare, resubmits a spec it has
// already completed (cache reads).
func interactiveClient(cfg config, url string, deadline time.Time, tr *tracer, c *counters, r *clientRun) {
	cl := newClient(url)
	defer cl.close()
	r.o.counts = map[string]int{}
	rng := rand.New(rand.NewSource(cfg.seed))
	fams := serviceFamilies()
	// answer is what a cache read must repeat.
	type answer struct {
		state     serve.State
		transfers int
		objective float64
	}
	type completed struct {
		name string
		body []byte
	}
	// Resubmissions draw from the last resubmitPool completed specs:
	// keeping every body would grow the live heap that the in-process
	// daemon's garbage collector marks on every cycle.
	var pool []completed
	first := map[string]answer{} // job key -> first answer
	next := 0
	for i := 0; cfg.ops > 0 && i < cfg.ops || cfg.ops == 0 && time.Now().Before(deadline); i++ {
		var m member
		var body []byte
		var err error
		switch {
		case cfg.rejectEvery > 0 && (i+1)%cfg.rejectEvery == 0:
			var sc *sysgen.Scenario
			sc, err = sysgen.Generate(cfg.seed*seedStride+int64(i), sysgen.SingleCore)
			if err == nil {
				m = member{name: sc.Name, sys: sc.Sys}
			}
		case len(pool) > 0 && rng.Float64() < cfg.hitShare:
			prev := pool[rng.Intn(len(pool))]
			m, body = member{name: prev.name}, prev.body
		default:
			m, err = generate(cfg.seed, next, fams)
			next++
		}
		if err == nil && body == nil {
			var spec serve.JobSpec
			if spec, err = systemSpec(m); err == nil {
				body, err = specBody(spec)
			}
		}
		if err != nil {
			r.o.attempted++
			r.o.fail(m.name, err.Error())
			continue
		}
		op := int64(i + 1)
		sp := tr.begin("serve.job", 0, op)
		t := time.Now()
		st, err := cl.submit(body)
		lat := time.Since(t)
		tr.end(sp)
		r.o.attempted++
		r.lat = append(r.lat, lat)
		if err != nil {
			r.o.fail(m.name, err.Error())
			continue
		}
		res := st.Result
		got := answer{res.State, res.NumTransfers, res.Objective}
		if want, ok := first[st.Key]; ok {
			r.o.counts["hit"]++
			c.hit(lat)
			if got != want {
				r.o.fail(m.name, fmt.Sprintf("cache read returned %+v, first answer was %+v", got, want))
			}
			continue
		}
		r.o.counts[string(res.State)]++
		c.newJob(lat, res.SolveTime, res.Attempts)
		if reason := checkJob(st, m); reason != "" {
			r.o.fail(m.name, reason)
			continue
		}
		first[st.Key] = got
		if len(pool) < resubmitPool {
			pool = append(pool, completed{m.name, body})
		} else {
			pool[len(first)%resubmitPool] = completed{m.name, body}
		}
	}
}

// checkJob checks a terminal comb job: failed jobs count as failures, a
// schedule must have one line per transfer, and a scenario built to be
// infeasible must not come back with a schedule.
func checkJob(st *serve.JobStatus, m member) string {
	res := st.Result
	switch {
	case !st.State.Terminal():
		return "job not terminal: " + string(st.State)
	case st.State == serve.StateFailed:
		return "job failed: " + res.Error
	case st.State == serve.StateInfeasible:
		return ""
	case m.expectInfeasible:
		return "returned a schedule for an infeasible scenario"
	case res.NumTransfers == 0 || len(res.Schedule) != res.NumTransfers:
		return fmt.Sprintf("schedule has %d lines for %d transfers", len(res.Schedule), res.NumTransfers)
	}
	return ""
}

// batchClient sends the batch requests one at a time.
func batchClient(url string, jobs []batchJob, tr *tracer, c *counters, r *clientRun) {
	cl := newClient(url)
	defer cl.close()
	for i, j := range jobs {
		m := j.m
		r.o.attempted++
		if j.err != nil {
			r.o.fail(m.name, j.err.Error())
			continue
		}
		op := int64(batchStream + i + 1)
		sp := tr.begin("serve.job", 0, op)
		t := time.Now()
		st, err := cl.submit(j.body)
		lat := time.Since(t)
		tr.end(sp)
		r.lat = append(r.lat, lat)
		r.batch = append(r.batch, m)
		if err != nil {
			r.o.fail(m.name, err.Error())
			continue
		}
		res := st.Result
		c.newJob(lat, res.SolveTime, res.Attempts)
		if reason := checkJob(st, m); reason != "" {
			r.o.fail(m.name, reason)
			continue
		}
		if st.State == serve.StateInfeasible {
			continue
		}
		r.results++
		if res.MILPStatus == "optimal" && res.StopCause == "" {
			r.proofs++
		}
		if !res.Certified && res.Error == "" {
			r.o.fail(m.name, fmt.Sprintf("MILP job %s/%s neither certified nor carrying a retry cause", res.MILPStatus, res.StopCause))
		}
	}
}

// rerunBatch re-solves each batch job's system in process, the way the
// daemon does, to time the layers the daemon hides from its clients:
// let, rta, combopt, letopt, milp, verify.CheckOptimal and sim. A
// certificate the FastSearch re-solve fails is printed, not counted: the
// daemon treats it as a transient fault and retries.
func rerunBatch(cfg config, tr *tracer, c *counters, batch []member, o *outcome) {
	cm := dma.DefaultCostModel()
	for i, m := range batch {
		op := int64(2*batchStream + i + 1)
		o.attempted++
		opSpan := tr.begin("service.rerun", 0, op)
		var a *let.Analysis
		var err error
		tr.wrap("let.Analyze", opSpan, op, func() { a, err = let.Analyze(m.sys) })
		if err != nil {
			o.fail(m.name, "re-run: let.Analyze: "+err.Error())
			tr.end(opSpan)
			continue
		}
		ccfg := experiments.Config{Alpha: 0.2, Objective: dma.MinTransfers, Solver: experiments.SolverMILP,
			MILPTimeLimit: batchBudget, Workers: 1, FastSearch: true}
		out, err := solve(tr, opSpan, op, a, ccfg, c)
		switch {
		case err != nil && !decidedInfeasible(err):
			o.fail(m.name, "re-run: "+err.Error())
		case err == nil:
			c.addMILP("", out.res)
			tr.wrap("verify.CheckOptimal", opSpan, op, func() {
				vs := verify.CheckOptimal(a, cm, out.gamma, ccfg.Objective, out.res, verify.OptimalOptions{TimeLimit: batchBudget})
				if len(vs) > 0 {
					fmt.Fprintf(os.Stderr, "letdmabench: %s: re-run certificate: %s\n", m.name, vs[0])
				}
			})
			if out.solved.Sched != nil {
				if reason := checkSchedule(tr, opSpan, op, a, out); reason != "" {
					o.fail(m.name, "re-run: "+reason)
				}
			}
		}
		tr.end(opSpan)
	}
}
