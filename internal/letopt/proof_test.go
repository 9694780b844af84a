package letopt

import (
	"math"
	"testing"
	"time"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/milp"
	"letdma/internal/model"
	"letdma/internal/rta"
	"letdma/internal/waters"
)

// solveTableI solves sys the way `letdma schedule -solver milp` does for a
// Table I cell (see solveWarm) under a 5-minute limit and requires a proof.
func solveTableI(t *testing.T, sys *model.System, obj dma.Objective) *Result {
	t.Helper()
	res := solveWarm(t, sys, obj, 5*time.Minute)
	if res.Status != milp.StatusOptimal || res.StopCause != milp.StopNone {
		t.Fatalf("status %s stop %s, want a proof (optimal, none)", res.Status, res.StopCause)
	}
	return res
}

// solveWarm solves sys with alpha = 0.2 gamma deadlines and the combopt
// warm start on the default one-worker search, as `letdma schedule -solver
// milp` does.
func solveWarm(t *testing.T, sys *model.System, obj dma.Objective, limit time.Duration) *Result {
	t.Helper()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	cm := dma.DefaultCostModel()
	gamma, err := rta.Gammas(a, rta.LETDemand(a, cm, dma.GiottoPerCommSchedule(a)), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	comb, err := combopt.Solve(a, cm, gamma, obj)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(a, cm, gamma, obj, Options{
		MILP:       milp.Params{TimeLimit: limit},
		WarmLayout: comb.Layout,
		WarmSched:  comb.Sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWatersDelayRatioStopIsNoProof: "optimal" means proved. Full-WATERS
// OBJ-DEL at the CLI defaults (60 s limit, |C(s0)| slots) is a solve whose
// root LP can stop on a numerical fault. A search that stopped early on
// anything but the gap tolerance must not report optimal. A node left open
// by an undecided LP keeps the gap above 0, and when that node is the root
// no bound is proved at all.
func TestWatersDelayRatioStopIsNoProof(t *testing.T) {
	res := solveWarm(t, waters.System(), dma.MinDelayRatio, 60*time.Second)
	t.Logf("status %s stop %s obj %g bound %g gap %g nodes %d",
		res.Status, res.StopCause, res.Objective, res.BestBound, res.Gap, res.Nodes)
	if res.Status == milp.StatusOptimal && res.StopCause != milp.StopNone && res.StopCause != milp.StopGap {
		t.Fatalf("status optimal with stop cause %s", res.StopCause)
	}
	if res.StopCause == milp.StopNumerical {
		if res.Gap <= 0 {
			t.Errorf("gap %g after a numerical stop, want > 0", res.Gap)
		}
		if res.Nodes == 1 && !math.IsInf(res.BestBound, -1) {
			t.Errorf("bound %g with the root still open, want -Inf", res.BestBound)
		}
	}
}

// TestLiteMinTransfersSolvedWarm is the counter-level regression test of
// the warm path on WATERS-lite OBJ-DMAT: the one-worker search expands
// children from the parent basis, so phase 1 stays a small share of the
// simplex work and only the root (plus at most one fallback) is solved
// cold. It checks counters, not wall time.
func TestLiteMinTransfersSolvedWarm(t *testing.T) {
	res := solveTableI(t, waters.Lite(), dma.MinTransfers)
	if res.Objective != 4 {
		t.Errorf("objective %g, want 4", res.Objective)
	}
	k := res.Kernel
	if share := float64(k.Phase1Iters) / float64(res.SimplexIters); share >= 0.25 {
		t.Errorf("phase-1 share %.3f (%d of %d iterations), want < 0.25", share, k.Phase1Iters, res.SimplexIters)
	}
	if k.ColdSolves > 2 {
		t.Errorf("%d cold solves, want <= 2", k.ColdSolves)
	}
	if k.WarmExpands == 0 {
		t.Error("no node was expanded warm")
	}
}

// TestWatersNoObjectiveProvedByBoxBound: NO-OBJ has an empty objective, so
// the feasible combopt warm start already meets the box bound and is
// proved optimal with no LP at all.
func TestWatersNoObjectiveProvedByBoxBound(t *testing.T) {
	sys := waters.System()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	res := solveTableI(t, sys, dma.NoObjective)
	if res.Nodes != 0 || res.SimplexIters != 0 || res.Gap != 0 {
		t.Errorf("nodes %d, iterations %d, gap %g; want 0, 0, 0", res.Nodes, res.SimplexIters, res.Gap)
	}
	if res.Sched == nil {
		t.Error("no schedule decoded from the warm start")
	}
}

// TestMinTransfersObjectiveStep: maxRGI bounds the integral RGI_i from
// above, so it is declared integer and the OBJ-DMAT objective moves in
// steps of 1, which lets the search round every relaxation bound up to
// the next integer.
func TestMinTransfersObjectiveStep(t *testing.T) {
	f, err := newFormulation(pairSystem(t), dma.DefaultCostModel(), nil, dma.MinTransfers, 0)
	if err != nil {
		t.Fatal(err)
	}
	terms := f.m.Obj.Terms
	if len(terms) != 1 || terms[0].Var != f.objVar || terms[0].Coef != 1 {
		t.Fatalf("objective %+v, want 1*maxRGI", terms)
	}
	if v := f.m.Vars[f.objVar]; v.Type != milp.Integer {
		t.Fatalf("maxRGI has type %v, want integer", v.Type)
	}
}
