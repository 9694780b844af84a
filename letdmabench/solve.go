package main

import (
	"fmt"
	"strings"
	"time"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/experiments"
	"letdma/internal/let"
	"letdma/internal/letopt"
	"letdma/internal/milp"
	"letdma/internal/model"
	"letdma/internal/rta"
	"letdma/internal/sim"
	"letdma/internal/verify"
)

// solveOut is one solve's result: experiments.SolveFull's three values
// plus the combinatorial warm start the MILP started from.
type solveOut struct {
	solved *experiments.Solved
	res    *letopt.Result
	gamma  dma.Deadlines
	// comb is the combopt result; set by the traced path only.
	comb *combopt.Result
}

// solve runs experiments.SolveFull. Traced, it runs the same sequence of
// layer calls as SolveFull (rta, combopt, letopt) one by one, each in a
// span, so their times are measured from outside the layer. The self-test
// checks that both paths return the same outputs.
func solve(tr *tracer, parent int, op int64, a *let.Analysis, cfg experiments.Config, c *counters) (solveOut, error) {
	if tr == nil {
		solved, res, gamma, err := experiments.SolveFull(a, cfg)
		return solveOut{solved: solved, res: res, gamma: gamma}, err
	}
	cm := dma.DefaultCostModel()
	if cfg.CostModel != nil {
		cm = *cfg.CostModel
	}
	if cfg.MILPTimeLimit == 0 {
		cfg.MILPTimeLimit = 60 * time.Second
	}
	var out solveOut
	var intf map[model.CoreID]rta.LETInterference
	var err error
	tr.wrap("rta.LETDemand", parent, op, func() {
		intf = rta.LETDemand(a, cm, dma.GiottoPerCommSchedule(a))
	})
	if cfg.Alpha > 0 {
		tr.wrap("rta.Gammas", parent, op, func() { out.gamma, err = rta.Gammas(a, intf, cfg.Alpha) })
		if err != nil {
			return out, fmt.Errorf("experiments: alpha=%.2f: %w", cfg.Alpha, err)
		}
	}
	tr.wrap("combopt.SolveWithOptions", parent, op, func() {
		out.comb, err = combopt.SolveWithOptions(a, cm, out.gamma, cfg.Objective, combopt.Options{Workers: cfg.Workers})
	})
	c.combopt(err == nil)
	if err != nil {
		return out, fmt.Errorf("experiments: alpha=%.2f infeasible: %w", cfg.Alpha, err)
	}
	out.solved = &experiments.Solved{
		Layout:       out.comb.Layout,
		Sched:        out.comb.Sched,
		Gamma:        out.gamma,
		NumTransfers: out.comb.NumTransfers,
		Objective:    out.comb.Objective,
	}
	if cfg.Solver != experiments.SolverMILP {
		return out, nil
	}
	var wall time.Duration
	tr.wrap("letopt.Solve", parent, op, func() {
		start := time.Now()
		out.res, err = letopt.Solve(a, cm, out.gamma, cfg.Objective, letopt.Options{
			Slots:      cfg.Slots,
			MILP:       milp.Params{TimeLimit: cfg.MILPTimeLimit, Workers: cfg.Workers, FastSearch: cfg.FastSearch, Interrupt: cfg.Interrupt},
			WarmLayout: out.comb.Layout,
			WarmSched:  out.comb.Sched,
		})
		wall = time.Since(start)
	})
	if err != nil {
		return out, err
	}
	c.letopt(wall, out.res)
	out.solved.MILPStatus = out.res.Status.String()
	if out.res.Sched != nil {
		out.solved.Layout = out.res.Layout
		out.solved.Sched = out.res.Sched
		out.solved.NumTransfers = out.res.Sched.NumTransfers()
		out.solved.Objective = out.res.Objective
	}
	return out, nil
}

// decidedInfeasible reports whether a SolveFull error is a decided answer
// (no schedule meets the deadlines at this alpha) rather than a failure.
func decidedInfeasible(err error) bool {
	msg := err.Error()
	for _, s := range []string{"infeasible", "unschedulable", "no slack"} {
		if strings.Contains(msg, s) {
			return true
		}
	}
	return false
}

// proved is the benchmark's definition of a proof: an optimal status that
// the search reached without stopping early. A status string alone is not
// trusted, since the kernel reports optimal after a numerical stop.
func proved(res *letopt.Result) bool {
	return res != nil && res.Status == milp.StatusOptimal && res.StopCause == milp.StopNone
}

// checkSchedule replays a returned schedule through the paper's oracle and
// one simulated hyperperiod. It returns a reason, or "" when both pass.
func checkSchedule(tr *tracer, parent int, op int64, a *let.Analysis, out solveOut) string {
	cm := dma.DefaultCostModel()
	var reason string
	tr.wrap("verify.CheckSolution", parent, op, func() {
		if vs := verify.CheckSolution(a, cm, out.solved.Layout, out.solved.Sched, out.gamma); len(vs) > 0 {
			reason = "CheckSolution: " + vs[0].String()
		}
	})
	if reason != "" {
		return reason
	}
	tr.wrap("sim.Run", parent, op, func() {
		res, err := sim.Run(sim.Config{Analysis: a, Cost: cm, Sched: out.solved.Sched, Protocol: sim.Proposed, Hyperperiods: 1})
		switch {
		case err != nil:
			reason = "sim.Run: " + err.Error()
		case res.Property3Violations > 0:
			reason = fmt.Sprintf("sim.Run: %d Property-3 violations", res.Property3Violations)
		}
	})
	return reason
}
