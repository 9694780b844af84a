package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"letdma/internal/letopt"
	"letdma/internal/milp"
)

// reported is one printed metric with its sample count.
type reported struct {
	name  string
	unit  string
	value float64
	n     int
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func share(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// milpAgg sums the counters of the MILP results of one table1-milp cell,
// or of every MILP result of a run.
type milpAgg struct {
	solves          int
	search          time.Duration
	nodes, lpIters  int
	phase1          int
	warmHits, warm  int
	coldSolves      int
	refactors       int
	ftranNnz, ftran int
	luNnz, etaNnz   int
	maxGap          float64
	stopNumerical   int
	stopLimit       int
	optimalUnproven int
}

func (m *milpAgg) add(r *letopt.Result) {
	m.solves++
	m.search += r.Runtime
	m.nodes += r.Nodes
	m.lpIters += r.SimplexIters
	k := r.Kernel
	m.phase1 += k.Phase1Iters
	m.warmHits += k.WarmHits
	m.warm += k.WarmAttempts
	m.coldSolves += k.ColdSolves
	m.refactors += k.Refactorizations
	m.ftranNnz += k.FtranNnz
	m.ftran += k.FtranSolves
	m.luNnz += k.LuNnz
	m.etaNnz += k.EtaNnz
	if !math.IsInf(r.Gap, 0) { // a result without an incumbent has no finite gap
		m.maxGap = math.Max(m.maxGap, r.Gap)
	}
	switch r.StopCause {
	case milp.StopNumerical:
		m.stopNumerical++
	case milp.StopLimit:
		m.stopLimit++
	}
	if r.Status == milp.StatusOptimal && r.StopCause != milp.StopNone {
		m.optimalUnproven++
	}
}

// metrics lists the MILP per-layer metrics, each name suffixed by sfx.
func (m *milpAgg) metrics(sfx string) []reported {
	if m == nil {
		m = &milpAgg{}
	}
	n := m.solves
	return []reported{
		{"milp.search_s" + sfx, "s", m.search.Seconds(), n},
		{"milp.nodes" + sfx, "count", float64(m.nodes), n},
		{"milp.lp_iters" + sfx, "count", float64(m.lpIters), n},
		{"milp.phase1_share" + sfx, "ratio", share(m.phase1, m.lpIters), n},
		{"milp.warm_hit_ratio" + sfx, "ratio", share(m.warmHits, m.warm), n},
		{"milp.cold_solves" + sfx, "count", float64(m.coldSolves), n},
		{"milp.refactors" + sfx, "count", float64(m.refactors), n},
		{"milp.ftran_avg_nnz" + sfx, "count", share(m.ftranNnz, m.ftran), n},
		{"milp.lu_nnz" + sfx, "count", float64(m.luNnz), n},
		{"milp.eta_nnz" + sfx, "count", float64(m.etaNnz), n},
		{"milp.gap" + sfx, "ratio", m.maxGap, n},
		{"milp.stop_numerical" + sfx, "count", float64(m.stopNumerical), n},
		{"milp.stop_limit" + sfx, "count", float64(m.stopLimit), n},
		{"milp.optimal_unproven" + sfx, "count", float64(m.optimalUnproven), n},
	}
}

// counters collects the per-layer counts of one run. The workloads update
// it from several goroutines in service-mix, hence the lock.
type counters struct {
	mu sync.Mutex
	// milp holds one aggregate per table1-milp cell plus "" for every
	// MILP result of the run.
	milp           map[string]*milpAgg
	letoptOverhead time.Duration
	letoptCalls    int
	vars, cons     int
	combCalls      int
	combInfeasible int
	serveOverhead  []float64
	serveHit       []float64
	serveAttempts  int
	serveNewJobs   int
}

func newCounters() *counters { return &counters{milp: map[string]*milpAgg{"": {}}} }

// addMILP records one MILP result under the run total and, when cell is
// not empty, under its table1-milp cell.
func (c *counters) addMILP(cell string, r *letopt.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.milp[""].add(r)
	if cell != "" {
		if c.milp[cell] == nil {
			c.milp[cell] = &milpAgg{}
		}
		c.milp[cell].add(r)
	}
}

func (c *counters) combopt(feasible bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.combCalls++
	if !feasible {
		c.combInfeasible++
	}
}

// letopt records letopt.Solve's own time: its wall time minus the
// search's Runtime, i.e. formulate, decode and validate.
func (c *counters) letopt(wall time.Duration, r *letopt.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.letoptCalls++
	c.letoptOverhead += wall - r.Runtime
	c.vars += r.ModelVars
	c.cons += r.ModelCons
}

// newJob records the serve layer's share of a new job's latency.
func (c *counters) newJob(latency, solve time.Duration, attempts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.serveOverhead = append(c.serveOverhead, (latency - solve).Seconds())
	c.serveAttempts += attempts
	c.serveNewJobs++
}

func (c *counters) hit(latency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.serveHit = append(c.serveHit, latency.Seconds())
}

// cells are the six table1-milp cells in print order.
var cells = []string{"lite.none", "lite.dmat", "lite.del", "waters.none", "waters.dmat", "waters.del"}

// perLayer lists every per-layer metric of the traced run. Layers a
// workload does not call read 0.
func perLayer(tr *tracer, c *counters, overhead float64) []reported {
	t := tr.byName()
	rtaCalls := t["rta.LETDemand"].calls
	rtaTime := t["rta.LETDemand"].total + t["rta.Gammas"].total
	meanRTA := 0.0
	if rtaCalls > 0 {
		meanRTA = rtaTime.Seconds() / float64(rtaCalls)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	meanOverhead := 0.0
	if c.letoptCalls > 0 {
		meanOverhead = c.letoptOverhead.Seconds() / float64(c.letoptCalls)
	}
	out := []reported{
		{"let.analyze_s", "s", t["let.Analyze"].mean(), t["let.Analyze"].calls},
		{"rta.gammas_s", "s", meanRTA, rtaCalls},
		{"combopt.solve_s", "s", t["combopt.SolveWithOptions"].mean(), t["combopt.SolveWithOptions"].calls},
		{"combopt.infeasible_share", "ratio", share(c.combInfeasible, c.combCalls), c.combCalls},
		{"letopt.overhead_s", "s", meanOverhead, c.letoptCalls},
		{"letopt.vars", "count", share(c.vars, c.letoptCalls), c.letoptCalls},
		{"letopt.cons", "count", share(c.cons, c.letoptCalls), c.letoptCalls},
	}
	out = append(out, c.milp[""].metrics("")...)
	for _, cell := range cells {
		out = append(out, c.milp[cell].metrics("."+cell)...)
	}
	out = append(out,
		reported{"verify.check_solution_s", "s", t["verify.CheckSolution"].mean(), t["verify.CheckSolution"].calls},
		reported{"verify.check_optimal_s", "s", t["verify.CheckOptimal"].mean(), t["verify.CheckOptimal"].calls},
		reported{"sim.run_s", "s", t["sim.Run"].mean(), t["sim.Run"].calls},
		reported{"serve.overhead_s", "s", quantile(c.serveOverhead, 0.5), len(c.serveOverhead)},
		reported{"serve.hit_s", "s", quantile(c.serveHit, 0.5), len(c.serveHit)},
		reported{"serve.attempts_per_job", "count", share(c.serveAttempts, c.serveNewJobs), c.serveNewJobs},
		reported{"trace.overhead_s", "s", overhead, 1},
	)
	return out
}
