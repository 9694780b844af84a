package combopt_test

import (
	"testing"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/sysgen"
)

// TestInfeasibleErrorDeterministic: a saturated scenario one byte short in
// every scratchpad violates capacity in several memories at once, and the
// reported error must name them in the same order on every solve, so
// dma.Validate must visit the memories in a fixed order, never in map
// order.
func TestInfeasibleErrorDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 3, 5} {
		sc, err := sysgen.Generate(seed, sysgen.Saturated)
		if err != nil {
			t.Fatal(err)
		}
		a, err := let.Analyze(sc.Sys)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		for run := 0; run < 20; run++ {
			_, err := combopt.Solve(a, dma.DefaultCostModel(), nil, dma.MinTransfers)
			if err == nil {
				t.Fatalf("%s: solved, want a capacity violation", sc.Name)
			}
			if run == 0 {
				want = err.Error()
				continue
			}
			if got := err.Error(); got != want {
				t.Fatalf("%s run %d: error text changed:\n%s\nvs\n%s", sc.Name, run, got, want)
			}
		}
	}
}
