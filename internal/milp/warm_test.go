package milp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// checkOracle holds a solve to the oracle of its model: the reference's
// status, an objective within 1e-9 of the reference's, and a feasible
// incumbent.
func checkOracle(t *testing.T, label string, m *Model, ref, got *Solution) {
	t.Helper()
	if got.Status != ref.Status {
		t.Fatalf("%s: status %v, reference %v", label, got.Status, ref.Status)
	}
	if (got.X == nil) != (ref.X == nil) {
		t.Fatalf("%s: incumbent presence %v, reference %v", label, got.X != nil, ref.X != nil)
	}
	if got.X == nil {
		return
	}
	if math.Abs(got.Obj-ref.Obj) > 1e-9 {
		t.Fatalf("%s: objective %.17g, reference %.17g", label, got.Obj, ref.Obj)
	}
	if err := m.CheckFeasible(got.X, 1e-6); err != nil {
		t.Fatalf("%s: incumbent infeasible: %v", label, err)
	}
}

// TestWarmColdEquivalence: on the random-model corpus, the deterministic
// engine reaches the same status and optimal objective with warm solves
// enabled and disabled, and every incumbent is feasible. Warm and cold runs may branch differently, so
// trajectories are not compared.
func TestWarmColdEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 200
	if testing.Short() {
		trials = 50
	}
	var hits, expands int
	for trial := 0; trial < trials; trial++ {
		m := randomModel(rng)
		var ref *Solution
		for _, disable := range []bool{true, false} {
			sol := mustSolve(t, m, Params{DisableWarmStart: disable, TimeLimit: 10 * time.Second})
			label := fmt.Sprintf("trial %d disable %v", trial, disable)
			if ref == nil {
				ref = sol
			}
			checkOracle(t, label, m, ref, sol)
			k := sol.Kernel
			if k.WarmHits+k.WarmExpands+k.ColdFallbacks != k.WarmAttempts {
				t.Fatalf("%s: inconsistent kernel counters %+v", label, k)
			}
			if disable && k.WarmAttempts != 0 {
				t.Fatalf("%s: DisableWarmStart still solved warm: %+v", label, k)
			}
			hits += k.WarmHits
			expands += k.WarmExpands
		}
	}
	// The corpus must actually exercise both warm outcomes, or the
	// equivalence above is vacuous.
	if hits == 0 || expands == 0 {
		t.Fatalf("warm path under-exercised: %d fathoms, %d expansions", hits, expands)
	}
}

// TestWarmStartWithIncumbentEquivalence repeats the oracle check in the
// configuration the production solvers use: a feasible warm-start
// incumbent, which makes cutoff fathoming available from the first child
// on. A node-limited run cannot be held to the optimum, so it is held to
// what it may claim: a feasible incumbent no worse than the warm start,
// and a bound no better than the optimum.
func TestWarmStartWithIncumbentEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		m := randomModel(rng)
		// Find any feasible point to use as the incumbent.
		ref := mustSolve(t, m, Params{DisableWarmStart: true, TimeLimit: 10 * time.Second})
		if ref.X == nil {
			continue
		}
		// Minimization-sense comparisons against the reference optimum.
		sign := 1.0
		if m.ObjSense == Maximize {
			sign = -1
		}
		warmObj := m.Obj.Eval(ref.X)
		for _, disable := range []bool{true, false} {
			p := Params{WarmStart: ref.X, DisableWarmStart: disable, TimeLimit: 10 * time.Second}
			label := fmt.Sprintf("trial %d disable %v", trial, disable)
			checkOracle(t, label, m, ref, mustSolve(t, m, p))

			p.MaxNodes = 4
			lim := mustSolve(t, m, p)
			if lim.X == nil {
				t.Fatalf("%s max_nodes: lost the warm-start incumbent", label)
			}
			if err := m.CheckFeasible(lim.X, 1e-6); err != nil {
				t.Fatalf("%s max_nodes: incumbent infeasible: %v", label, err)
			}
			if sign*lim.Obj > sign*warmObj+1e-9 {
				t.Fatalf("%s max_nodes: objective %g worse than the warm start %g", label, lim.Obj, warmObj)
			}
			if sign*lim.BestBound > sign*ref.Obj+1e-9 {
				t.Fatalf("%s max_nodes: bound %g passes the optimum %g", label, lim.BestBound, ref.Obj)
			}
		}
	}
}

// TestRootBasisRoundTrip feeds Solution.RootBasis back through
// Params.WarmBasis: the re-solve must validate the basis, produce the same
// answer, and actually solve the root warm.
func TestRootBasisRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		m := randomModel(rng)
		first := mustSolve(t, m, Params{TimeLimit: 10 * time.Second})
		if first.RootBasis == nil {
			continue
		}
		again := mustSolve(t, m, Params{WarmBasis: first.RootBasis, TimeLimit: 10 * time.Second})
		if again.Kernel.WarmAttempts == 0 {
			t.Fatalf("trial %d: WarmBasis accepted but never used", trial)
		}
		if again.Status != first.Status || math.Abs(again.Obj-first.Obj) > 1e-9 {
			t.Fatalf("trial %d: re-solve with RootBasis diverged: %v/%g vs %v/%g",
				trial, again.Status, again.Obj, first.Status, first.Obj)
		}
	}
}

// TestWarmBasisRejected pins the validation errors for malformed bases.
func TestWarmBasisRejected(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 10)
	m.AddLE("c", NewExpr(0).Add(x, 1), 7)
	m.SetObjective(Maximize, Sum(1, x))

	cases := []struct {
		name  string
		basis *Basis
	}{
		{"wrong shape", &Basis{Cols: []int32{0}, States: []int8{stBasic}, ArtSign: []int8{1}}},
		{"column out of range", &Basis{Cols: []int32{9}, States: []int8{stLower, stBasic, stLower}, ArtSign: []int8{1}}},
		{"state not basic", &Basis{Cols: []int32{1}, States: []int8{stLower, stLower, stLower}, ArtSign: []int8{1}}},
		{"invalid art sign", &Basis{Cols: []int32{1}, States: []int8{stLower, stBasic, stLower}, ArtSign: []int8{0}}},
		{"basic not in basis", &Basis{Cols: []int32{1}, States: []int8{stBasic, stBasic, stLower}, ArtSign: []int8{1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Solve(m, Params{WarmBasis: tc.basis}); err == nil {
				t.Fatal("malformed warm basis accepted")
			}
		})
	}

	// A valid basis (from a solve) must be accepted.
	first := mustSolve(t, m, Params{})
	if first.RootBasis == nil {
		t.Fatal("no root basis on an optimal solve")
	}
	if _, err := Solve(m, Params{WarmBasis: first.RootBasis}); err != nil {
		t.Fatalf("valid warm basis rejected: %v", err)
	}
}

// TestObjIntegerStepHugeCoefficient is the regression test for the
// unguarded float64 -> int64 conversion: coefficients above 2^53 (still
// exactly integral as float64) must disable gcd bound rounding entirely,
// because the conversion can silently produce a wrong — typically too
// large — step, and roundBoundUp would then prune nodes containing the
// optimum. Example: {4096, 2^63+2048} has true gcd 2048, but on amd64 the
// out-of-range conversion of 2^63+2048 yields math.MinInt64 and the
// computed "gcd" came out 4096.
func TestObjIntegerStepHugeCoefficient(t *testing.T) {
	build := func(coefs ...float64) *Model {
		m := NewModel()
		e := NewExpr(0)
		for _, c := range coefs {
			v := m.AddInteger("x", 0, 10)
			e = e.Add(v, c)
		}
		m.SetObjective(Minimize, e)
		return m
	}
	huge := math.Ldexp(1, 63) + 2048 // 2^63 + 2048, exactly representable
	if !isIntegral(huge) {
		t.Fatal("test coefficient must pass the integrality check")
	}
	cases := []struct {
		name  string
		coefs []float64
		want  float64
	}{
		{"beyond int64 range", []float64{4096, huge}, 0},
		{"beyond 2^53 contiguity", []float64{2, math.Ldexp(1, 53) + 2}, 0},
		{"at 2^53 still exact", []float64{math.Ldexp(1, 53), math.Ldexp(1, 52)}, math.Ldexp(1, 52)},
		{"small sane gcd", []float64{6, 10}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := objIntegerStep(build(tc.coefs...), 1)
			//letvet:floateq objIntegerStep returns exact representable integers or 0 by contract
			if got != tc.want {
				t.Fatalf("objIntegerStep = %g, want %g", got, tc.want)
			}
		})
	}
}
