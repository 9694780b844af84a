package verify

import (
	"math"
	"testing"
	"time"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/letopt"
	"letdma/internal/milp"
	"letdma/internal/sysgen"
)

// TestWarmColdScenarioEquivalence runs the full Section-VI MILP on
// generated scenarios with the dual-simplex warm path enabled and disabled,
// and holds every run to the same oracle: the reference run's status, an
// objective within 1e-9 of it, and an incumbent that CheckSolution accepts
// against Constraints 1-10. Warm and cold runs may branch differently and
// return different tied optima, so layouts and node counts are not
// compared.
func TestWarmColdScenarioEquivalence(t *testing.T) {
	n := 18
	if testing.Short() {
		n = 6
	}
	scenarios, err := sysgen.GenerateN(11, n)
	if err != nil {
		t.Fatal(err)
	}
	cm := dma.DefaultCostModel()
	covered := 0
	for _, sc := range scenarios {
		if sc.ExpectNoComm {
			continue
		}
		a, err := let.Analyze(sc.Sys)
		if err != nil {
			continue
		}
		if a.NumComms() > 5 {
			continue // keep the MILP small enough for the warm/cold pair
		}
		covered++
		gamma := deriveGamma(a, cm, 0.2)
		for _, obj := range []dma.Objective{dma.MinTransfers, dma.MinDelayRatio} {
			var ref *letopt.Result
			for _, disable := range []bool{false, true} {
				res, err := letopt.Solve(a, cm, gamma, obj, letopt.Options{
					MILP: milp.Params{TimeLimit: time.Minute, DisableWarmStart: disable},
				})
				if err != nil {
					t.Fatalf("%s/%s disable=%v: %v", sc.Name, obj, disable, err)
				}
				if res.StopCause != milp.StopNone {
					t.Fatalf("%s/%s disable=%v: stopped early (%s)", sc.Name, obj, disable, res.StopCause)
				}
				if res.Sched != nil {
					if vs := CheckSolution(a, cm, res.Layout, res.Sched, gamma); len(vs) > 0 {
						t.Fatalf("%s/%s disable=%v: incumbent rejected:\n%v", sc.Name, obj, disable, vs)
					}
				}
				if ref == nil {
					ref = res
					continue
				}
				if res.Status != ref.Status || (res.Sched == nil) != (ref.Sched == nil) {
					t.Fatalf("%s/%s disable=%v: status %s (schedule %v), reference %s (schedule %v)",
						sc.Name, obj, disable, res.Status, res.Sched != nil, ref.Status, ref.Sched != nil)
				}
				if res.Sched != nil && math.Abs(res.Objective-ref.Objective) > 1e-9 {
					t.Fatalf("%s/%s disable=%v: objective %.17g, reference %.17g",
						sc.Name, obj, disable, res.Objective, ref.Objective)
				}
			}
		}
	}
	floor := 3
	if testing.Short() {
		floor = 2
	}
	if covered < floor {
		t.Fatalf("only %d scenarios exercised the MILP; the equivalence check is too thin", covered)
	}
}
