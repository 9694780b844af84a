package milp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// randomModel builds a small random MILP (the same family as
// TestRandomMILPvsEnumeration) from the given generator.
func randomModel(rng *rand.Rand) *Model {
	m := NewModel()
	nv := 2 + rng.Intn(4)
	for i := 0; i < nv; i++ {
		m.AddInteger("x", 0, float64(1+rng.Intn(3)))
	}
	nc := 1 + rng.Intn(4)
	for c := 0; c < nc; c++ {
		e := NewExpr(0)
		for i := 0; i < nv; i++ {
			e = e.Add(VarID(i), float64(rng.Intn(7)-3))
		}
		rhs := float64(rng.Intn(13) - 4)
		switch rng.Intn(3) {
		case 0:
			m.AddLE("c", e, rhs)
		case 1:
			m.AddGE("c", e, rhs)
		default:
			m.AddEQ("c", e, rhs)
		}
	}
	obj := NewExpr(0)
	for i := 0; i < nv; i++ {
		obj = obj.Add(VarID(i), float64(rng.Intn(11)-5))
	}
	sense := Minimize
	if rng.Intn(2) == 1 {
		sense = Maximize
	}
	m.SetObjective(sense, obj)
	return m
}

// TestWorkersInvariant solves random models at several worker counts and
// requires the entire reported trajectory — status, incumbent vector,
// objective, bound, gap, node and iteration counts — to be byte-for-byte
// identical. Without FastSearch the search runs on one worker and never
// reads Params.Workers, so -workers may change only wall-clock time, never
// results; FastSearch at one worker is that same search. One trial, on
// which the incumbent once depended on the worker count, is also pinned to
// its exact incumbent and objective.
func TestWorkersInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		m := randomModel(rng)
		var ref *Solution
		for _, p := range []Params{{Workers: 0}, {Workers: 1}, {Workers: 2}, {Workers: 5}, {FastSearch: true, Workers: 1}} {
			p.TimeLimit = 10 * time.Second
			sol, err := Solve(m, p)
			if err != nil {
				t.Fatalf("trial %d workers %d fast %v: %v", trial, p.Workers, p.FastSearch, err)
			}
			sol.Runtime = 0 // the only field allowed to vary
			if ref == nil {
				ref = sol
				continue
			}
			if !reflect.DeepEqual(ref, sol) {
				t.Fatalf("trial %d: workers=%d fast=%v trajectory differs from workers=0:\n%+v\nvs\n%+v",
					trial, p.Workers, p.FastSearch, ref, sol)
			}
		}
		if trial == 6 && (ref.Status != StatusOptimal || !reflect.DeepEqual(ref.X, []float64{2, 1, 0}) || ref.Obj != -7) {
			t.Fatalf("trial 6: %v x=%v obj=%g, want optimal x=[2 1 0] obj=-7", ref.Status, ref.X, ref.Obj)
		}
	}
}

// TestRelGap pins the relative-gap convention on the minimization form:
// |inc - bound| / (1e-10 + |inc|), 0 once the bound meets the incumbent,
// +Inf with no incumbent or no bound. The previous max(1, |inc|)
// denominator understated the gap for every objective with |inc| < 1 —
// which includes all OBJ-DEL delay-ratio objectives — and for negative
// incumbents near zero.
func TestRelGap(t *testing.T) {
	cases := []struct {
		name       string
		inc, bound float64
		want       float64
	}{
		{"large incumbent", 10, 8, 0.2},
		{"sub-unit incumbent", 0.5, 0.25, 0.5},
		{"delay-ratio scale", 0.04, 0.02, 0.5},
		{"negative incumbent", -5, -5.5, 0.1},
		{"negative near zero", -0.01, -0.02, 1.0},
		{"zero incumbent", 0, -1, 1e10},
		{"bound met", 5, 5, 0},
		{"bound crossed numerically", 5, 5.0000001, 0},
		{"no incumbent", math.Inf(1), 3, math.Inf(1)},
		{"no bound", 3, math.Inf(-1), math.Inf(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := relGap(tc.inc, tc.bound)
			if math.IsInf(tc.want, 1) {
				if !math.IsInf(got, 1) {
					t.Fatalf("relGap(%g, %g) = %g, want +Inf", tc.inc, tc.bound, got)
				}
				return
			}
			// Normalize the tolerance for very large expected gaps (the
			// zero-incumbent case evaluates to diff/1e-10).
			scale := 1.0
			if tc.want > 1 {
				scale = tc.want
			}
			if math.Abs(got-tc.want)/scale > 1e-6 {
				t.Fatalf("relGap(%g, %g) = %g, want %g", tc.inc, tc.bound, got, tc.want)
			}
		})
	}
}

// TestGapReportedOnTrueScale is the end-to-end regression for the old
// max(1, |inc|) denominator: a sub-unit-objective model stopped at the
// node limit must NOT be declared optimal when its true relative gap
// exceeds GapTol, even though the absolute gap is small.
func TestGapReportedOnTrueScale(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 3)
	y := m.AddInteger("y", 0, 3)
	m.AddGE("c", NewExpr(0).Add(x, 2).Add(y, 2), 3)
	m.SetObjective(Minimize, NewExpr(0).Add(x, 0.3).Add(y, 0.31))
	// Warm start (3, 0): objective 0.9. Root LP gives x=1.5 (objective
	// 0.45), so after one node the bound is 0.45: true relative gap 0.5,
	// absolute gap 0.45.
	sol := mustSolve(t, m, Params{
		WarmStart: []float64{3, 0},
		MaxNodes:  1,
		GapTol:    0.47,
	})
	if sol.Status != StatusFeasible {
		t.Fatalf("status = %v, want feasible (gap %g must exceed GapTol on the |inc| scale)",
			sol.Status, sol.Gap)
	}
	if math.Abs(sol.Gap-0.5) > 1e-6 {
		t.Fatalf("gap = %g, want 0.5 (= 0.45/0.9)", sol.Gap)
	}
}
