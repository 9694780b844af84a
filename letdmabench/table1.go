package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"letdma/internal/dma"
	"letdma/internal/experiments"
	"letdma/internal/let"
	"letdma/internal/waters"
)

// table1Instances are the paper's two case studies, analyzed.
type table1Instances struct {
	lite, waters *let.Analysis
}

var objectives = map[string]dma.Objective{
	"none": dma.NoObjective,
	"dmat": dma.MinTransfers,
	"del":  dma.MinDelayRatio,
}

// cellConfig is what `letdma schedule -solver milp -obj X` runs: alpha 0.2,
// the default engine and worker count, the combopt warm start, and the
// benchmark's fixed per-solve budget.
func cellConfig(cell string, budget time.Duration) experiments.Config {
	_, obj, _ := strings.Cut(cell, ".")
	return experiments.Config{
		Alpha:         0.2,
		Objective:     objectives[obj],
		Solver:        experiments.SolverMILP,
		MILPTimeLimit: budget,
	}
}

func (in table1Instances) analysis(cell string) *let.Analysis {
	if strings.HasPrefix(cell, "lite.") {
		return in.lite
	}
	return in.waters
}

// runTable1 is the table1-milp workload: the alpha = 0.2 MILP column of
// Table I on WATERS-lite and full WATERS under the three objectives. It
// runs whole passes over its cells until cfg.seconds have passed (one
// pass, in practice). A cell's proof time (proof_s) is its wall time when
// the MILP proved its answer, and its wall time plus the full budget
// otherwise.
func runTable1(cfg config, tr *tracer, c *counters) (*outcome, error) {
	setup := func() (table1Instances, error) {
		var in table1Instances
		var err error
		tr.wrap("let.Analyze", 0, 0, func() { in.lite, err = let.Analyze(waters.Lite()) })
		if err != nil {
			return in, err
		}
		sys := waters.System()
		if err := sys.Validate(); err != nil {
			return in, err
		}
		tr.wrap("let.Analyze", 0, 0, func() { in.waters, err = let.Analyze(sys) })
		return in, err
	}
	in, setupTimes, err := repeatSetup(cfg, setup, func(table1Instances) {})
	if err != nil {
		return nil, err
	}
	// Warm-up op, untimed: the cheapest cell.
	if _, _, _, err := experiments.SolveFull(in.lite, cellConfig("lite.none", cfg.budget)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	o := &outcome{counts: map[string]int{}, cells: map[string]string{}}
	walls := map[string][]float64{}
	charged := map[string][]float64{}
	proofs := 0
	start := time.Now()
	for op := int64(1); op == 1 || time.Since(start) < cfg.seconds; {
		for _, cell := range cfg.cells {
			r := runCell(cfg, tr, c, in, cell, op, o)
			walls[cell] = append(walls[cell], r.wall)
			charged[cell] = append(charged[cell], r.charged)
			o.wall += time.Duration(r.wall * float64(time.Second))
			if r.proved {
				proofs++
			}
			op++
		}
	}
	o.ops = o.attempted

	o.metric("setup_s", "s", quantile(seconds(setupTimes), 0.5), len(setupTimes))
	var perCell []float64
	for _, cell := range cfg.cells {
		o.metric("proof_s."+cell, "s", quantile(charged[cell], 0.5), len(charged[cell]))
		perCell = append(perCell, quantile(walls[cell], 0.5))
	}
	o.metric("proved_share", "ratio", share(proofs, o.attempted), o.attempted)
	o.metric("fail_share", "ratio", share(o.failed, o.attempted), o.attempted)
	// ops_per_s is proofs per second: the cells the MILP proved over the
	// measured wall time of every cell. The budget charged to an unproven
	// cell in proof_s is a constant that would hide a slower solve, so it
	// is left out; a cell that stops proving leaves the numerator and its
	// wall time rises towards the budget.
	o.metric("ops_per_s", "1/s", float64(proofs)/o.wall.Seconds(), o.attempted)
	o.metric("op_s.p50", "s", quantile(perCell, 0.5), len(perCell))
	// Six cells have no percentile with ten samples beyond it: op_s.p99
	// is the slowest cell.
	o.metric("op_s.p99", "s", quantile(perCell, 1), len(perCell))
	return o, nil
}

// cellRun is one cell's measured solve time, the proof time it is
// charged, and whether the MILP proved its answer, all in seconds.
type cellRun struct {
	wall, charged float64
	proved        bool
}

// runCell solves one cell and checks its result. Only the solve is timed:
// the checks are not part of the op.
func runCell(cfg config, tr *tracer, c *counters, in table1Instances, cell string, op int64, o *outcome) cellRun {
	a := in.analysis(cell)
	ccfg := cellConfig(cell, cfg.budget)
	name := "table1/" + cell
	o.attempted++
	opSpan := tr.begin("table1.cell", 0, op)
	defer tr.end(opSpan)
	start := time.Now()
	out, err := solve(tr, opSpan, op, a, ccfg, c)
	wall := time.Since(start).Seconds()
	r := cellRun{wall: wall, charged: wall + cfg.budget.Seconds()}
	if err != nil {
		o.fail(name, err.Error())
		return r
	}
	if out.res == nil {
		o.fail(name, "the MILP did not run")
		return r
	}
	c.addMILP(cell, out.res)
	res := out.res
	o.cells[cell] = fmt.Sprintf("status=%s stop=%s objective=%.9g transfers=%d nodes=%d lp_iters=%d",
		res.Status, res.StopCause, out.solved.Objective, out.solved.NumTransfers, res.Nodes, res.SimplexIters)
	if r.proved = proved(res); r.proved {
		r.charged = wall
	}
	if out.solved.Sched == nil {
		o.fail(name, "no schedule returned")
		return r
	}
	if reason := checkSchedule(tr, opSpan, op, a, out); reason != "" {
		o.fail(name, reason)
		return r
	}
	if reason := checkWarmStart(ccfg, a, out); reason != "" {
		o.fail(name, reason)
	}
	return r
}

// checkWarmStart requires the MILP objective to be no worse than the
// combopt warm start it began from. NO-OBJ has no objective to compare.
func checkWarmStart(cfg experiments.Config, a *let.Analysis, out solveOut) string {
	if cfg.Objective == dma.NoObjective {
		return ""
	}
	warm := 0.0
	if out.comb != nil {
		warm = out.comb.Objective
	} else {
		cfg.Solver = experiments.SolverComb
		comb, err := experiments.SolveProposed(a, cfg)
		if err != nil {
			return "combopt warm start: " + err.Error()
		}
		warm = comb.Objective
	}
	if got := out.solved.Objective; got > warm+1e-9*math.Max(1, math.Abs(warm)) {
		return fmt.Sprintf("MILP objective %.9g is worse than its combopt warm start %.9g", got, warm)
	}
	return ""
}
