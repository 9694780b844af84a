// Package verify is the paper-invariant oracle and differential harness
// of the LET-DMA reproduction: an independent re-derivation of every
// feasibility condition of the paper that any (system, layout, schedule,
// deadlines) candidate must satisfy, plus a cross-solver harness that
// checks the MILP, the combinatorial heuristic and brute-force
// enumeration against each other and against the discrete-event
// simulator on generated systems (internal/sysgen).
//
// The oracle deliberately re-implements the LET semantics from first
// principles — necessary writes/reads via the latest-write-before-read
// derivation instead of the index formulas of Eqs. (1)-(2), contiguity
// via byte addresses instead of layout positions, latencies by replaying
// the transfer sequence — so that a bug shared by the analysis and the
// optimizers cannot validate itself. Check returns a structured
// violation.List naming every violated paper condition.
package verify

import (
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/ordered"
	"letdma/internal/timeutil"
	"letdma/internal/violation"
)

// Check runs the complete oracle: the analysis-level invariants
// (CheckAnalysis) and the solution-level feasibility conditions
// (CheckSolution). An empty list means every paper condition holds.
func Check(a *let.Analysis, cm dma.CostModel, layout *dma.Layout, sched *dma.Schedule, gamma dma.Deadlines) violation.List {
	vs := CheckAnalysis(a)
	vs = append(vs, CheckSolution(a, cm, layout, sched, gamma)...)
	return vs
}

// CheckAnalysis validates the LET analysis itself against first
// principles, independently of internal/let's implementation:
//
//   - the communication set C(s0) contains exactly one write per
//     inter-core shared label and one read per (label, remote consumer);
//   - each communication's activation instants equal the
//     latest-write-before-read derivation of the skip rules (Eqs. (1)-(2));
//   - C(t) is a subset of C(s0) for every t in T*, and every
//     communication is active at s0 = 0 (premise of Theorem 1);
//   - each communication's activation pattern repeats with the per-task
//     communication hyperperiod H*_i of Eq. (3), which divides H.
func CheckAnalysis(a *let.Analysis) violation.List {
	var vs violation.List

	// Expected C(s0) and activation sets, re-derived from the raw system.
	expected := expectedComms(a.Sys)
	if len(expected) != len(a.Comms) {
		vs.Addf(violation.Activation, "Section IV",
			"analysis has %d communications, first principles give %d", len(a.Comms), len(expected))
	}
	for z, c := range a.Comms {
		exp, ok := expected[c]
		if !ok {
			vs.Addf(violation.Activation, "Section IV",
				"analysis communication %s has no first-principles counterpart", a.CommString(z))
			continue
		}
		got := a.Activations(z)
		if !equalTimes(got, exp) {
			vs.Addf(violation.Activation, "Eqs. (1)-(2)",
				"%s: analysis activations %v differ from first-principles %v",
				a.CommString(z), preview(got), preview(exp))
		}
	}

	// Subset property: s0 activates everything, and every active index
	// at any instant is a valid member of C(s0).
	s0 := a.ActiveAt(0)
	if len(s0) != len(a.Comms) {
		vs.Addf(violation.Subset, "Theorem 1",
			"C(s0) activates %d of %d communications", len(s0), len(a.Comms))
	}
	for _, t := range a.Instants() {
		for _, z := range a.ActiveAt(t) {
			if z < 0 || z >= len(a.Comms) {
				vs.Addf(violation.Subset, "Theorem 1",
					"C(%v) references unknown communication %d", t, z)
			}
		}
	}

	// Eq. (3): per-task communication hyperperiods.
	for _, task := range a.Sys.Tasks {
		hi, err := let.CommHyperperiod(a.Sys, task)
		if err != nil {
			vs.Addf(violation.Hyperperiod, "Eq. (3)", "task %s: %v", task.Name, err)
			continue
		}
		if int64(a.H)%int64(hi) != 0 {
			vs.Addf(violation.Hyperperiod, "Eq. (3)",
				"task %s: H*=%v does not divide H=%v", task.Name, hi, a.H)
			continue
		}
		for z, c := range a.Comms {
			if c.Task != task.ID {
				continue
			}
			act := make(map[timeutil.Time]bool, len(a.Activations(z)))
			for _, t := range a.Activations(z) {
				act[t] = true
			}
			for _, t := range a.Activations(z) {
				if t+hi < a.H && !act[t+hi] {
					vs.Addf(violation.Hyperperiod, "Eq. (3)",
						"%s: active at %v but not at %v = t + H*_i", a.CommString(z), t, t+hi)
				}
			}
		}
	}
	return vs
}

// CheckSolution validates one candidate solution against the feasibility
// conditions of Section VI, re-deriving every quantity:
//
//   - the schedule is an ordered partition of C(s0) (Constraint 1);
//   - every transfer merges only communications with the same source and
//     destination memories (Constraint 2);
//   - every required object is placed, within capacity (Constraints 3-5);
//   - at every activation instant t in T*, each induced transfer's labels
//     occupy one contiguous byte run in both memories, identically
//     ordered (Constraint 6);
//   - Properties 1 and 2 (Constraints 7-8);
//   - lambda_i(s0) <= gamma_i, with lambda recomputed by replaying the
//     transfer sequence (Constraint 9), cross-checked against the
//     analytic dma.Latency at every instant;
//   - the induced sequence at each t completes before the next instant
//     (Constraint 10 / Property 3).
func CheckSolution(a *let.Analysis, cm dma.CostModel, layout *dma.Layout, sched *dma.Schedule, gamma dma.Deadlines) violation.List {
	var vs violation.List
	if err := cm.Validate(); err != nil {
		vs.Addf(violation.CostModel, "Section V", "%v", err)
		return vs
	}

	// Constraint 1: ordered partition of C(s0).
	owner := make([]int, a.NumComms())
	for z := range owner {
		owner[z] = -1
	}
	partitionOK := true
	for g, tr := range sched.Transfers {
		if len(tr.Comms) == 0 {
			vs.Addf(violation.EmptyTransfer, "Constraint 1", "transfer %d is empty", g)
		}
		for _, z := range tr.Comms {
			if z < 0 || z >= a.NumComms() {
				vs.Addf(violation.Partition, "Constraint 1",
					"transfer %d references unknown communication %d", g, z)
				partitionOK = false
				continue
			}
			if owner[z] != -1 {
				vs.Addf(violation.Partition, "Constraint 1",
					"%s mapped to transfers %d and %d", a.CommString(z), owner[z], g)
				partitionOK = false
				continue
			}
			owner[z] = g
		}
	}
	for z, g := range owner {
		if g == -1 {
			vs.Addf(violation.Partition, "Constraint 1",
				"%s not mapped to any transfer", a.CommString(z))
			partitionOK = false
		}
	}

	// Constraint 2: uniform direction class, re-derived from the system.
	for g, tr := range sched.Transfers {
		for i := 1; i < len(tr.Comms); i++ {
			if commClass(a, tr.Comms[i]) != commClass(a, tr.Comms[0]) {
				vs.Addf(violation.MixedClass, "Constraint 2",
					"transfer %d mixes %s and %s", g, a.CommString(tr.Comms[0]), a.CommString(tr.Comms[i]))
				break
			}
		}
	}

	// Constraints 3-5: placement and capacity, via byte addresses.
	addrs := make(map[model.MemoryID]map[dma.Object]int64, a.Sys.NumMemories())
	for m := model.MemoryID(0); int(m) <= a.Sys.NumCores; m++ {
		addrs[m] = layout.Addresses(m, a.Sys)
	}
	placed := true
	for z := range a.Comms {
		lobj, gobj := dma.CommObjects(a, z)
		if _, ok := addrs[a.LocalMemory(z)][lobj]; !ok {
			vs.Addf(violation.Placement, "Constraint 3",
				"%s: local copy not placed in memory %d", a.CommString(z), a.LocalMemory(z))
			placed = false
		}
		if _, ok := addrs[a.Sys.GlobalMemory()][gobj]; !ok {
			vs.Addf(violation.Placement, "Constraint 3",
				"%s: shared label not placed in global memory", a.CommString(z))
			placed = false
		}
	}
	for m := model.MemoryID(0); int(m) <= a.Sys.NumCores; m++ {
		cap := a.Sys.MemoryCapacity(m)
		if cap <= 0 {
			continue
		}
		var bytes int64
		for _, o := range layout.Order(m) {
			bytes += a.Sys.Label(o.Label).Size
		}
		if bytes > cap {
			vs.Addf(violation.Capacity, "Section III-A",
				"memory %d hosts %d bytes but holds %d", m, bytes, cap)
		}
	}

	// Constraint 6 at every t in T*, by byte extents. The restriction of
	// an s0-contiguous transfer can fragment at a later instant (skipped
	// middle communication), so every t must be checked — Theorem 1 only
	// lifts the s0 latency bound, not contiguity.
	if placed && partitionOK {
		for _, t := range a.Instants() {
			induced, origin := sched.InducedAt(a, t)
			for k, tr := range induced {
				if msg := contiguousRun(a, addrs, tr); msg != "" {
					vs.Addf(violation.Contiguity, "Constraint 6",
						"transfer %d at t=%v: %s", origin[k], t, msg)
				}
			}
		}
	}

	if partitionOK {
		// Property 1 (Constraint 7): per task, writes before reads.
		for _, task := range a.Sys.Tasks {
			for z, c := range a.Comms {
				if c.Task != task.ID || c.Kind != let.Write {
					continue
				}
				for z2, c2 := range a.Comms {
					if c2.Task == task.ID && c2.Kind == let.Read && owner[z] >= owner[z2] {
						vs.Addf(violation.Property1, "Property 1",
							"task %s: %s (transfer %d) not before %s (transfer %d)",
							task.Name, a.CommString(z), owner[z], a.CommString(z2), owner[z2])
					}
				}
			}
		}
		// Property 2 (Constraint 8): per label, write before every read.
		for z, c := range a.Comms {
			if c.Kind != let.Write {
				continue
			}
			for z2, c2 := range a.Comms {
				if c2.Kind == let.Read && c2.Label == c.Label && owner[z] >= owner[z2] {
					vs.Addf(violation.Property2, "Property 2",
						"label %s: write (transfer %d) not before read by %s (transfer %d)",
						a.Sys.Label(c.Label).Name, owner[z], a.Sys.Task(c2.Task).Name, owner[z2])
				}
			}
		}

		// Constraint 9 + latency cross-check at every instant.
		for _, t := range a.Instants() {
			lam := replayLatencies(a, cm, sched, t)
			for _, task := range a.Sys.Tasks {
				analytic := dma.Latency(a, cm, sched, t, task.ID, dma.PerTaskReadiness)
				if lam[task.ID] != analytic {
					vs.Addf(violation.Latency, "Eq. (5)",
						"task %s at t=%v: replayed lambda=%v, analytic %v",
						task.Name, t, lam[task.ID], analytic)
				}
			}
			if t == 0 {
				for _, tid := range ordered.Keys(gamma) {
					if lam[tid] > gamma[tid] {
						vs.Addf(violation.Deadline, "Constraint 9",
							"task %s: lambda=%v > gamma=%v", a.Sys.Task(tid).Name, lam[tid], gamma[tid])
					}
				}
			}
		}

		// Constraint 10 / Property 3: replayed duration per window.
		for _, w := range a.Windows() {
			induced, _ := sched.InducedAt(a, w.Start)
			var total timeutil.Time
			for _, tr := range induced {
				total += transferCost(a, cm, tr)
			}
			if total > w.End-w.Start {
				vs.Addf(violation.Property3, "Constraint 10",
					"sequence at t=%v takes %v but the window is %v", w.Start, total, w.End-w.Start)
			}
		}
	}
	return vs
}

// commClass is the oracle's own direction class: (local memory, kind),
// re-derived from the task placement rather than let.Analysis.Class.
func commClass(a *let.Analysis, z int) [2]int {
	c := a.Comms[z]
	return [2]int{int(a.Sys.Task(c.Task).Core), int(c.Kind)}
}

// contiguousRun checks that the transfer's labels form one contiguous
// byte run in both the local and the global memory, identically ordered.
// It returns "" when contiguous, else a description.
func contiguousRun(a *let.Analysis, addrs map[model.MemoryID]map[dma.Object]int64, tr dma.Transfer) string {
	type span struct {
		z           int
		local, glob int64
		size        int64
	}
	localMem := a.LocalMemory(tr.Comms[0])
	globalMem := a.Sys.GlobalMemory()
	spans := make([]span, 0, len(tr.Comms))
	for _, z := range tr.Comms {
		lobj, gobj := dma.CommObjects(a, z)
		spans = append(spans, span{
			z:     z,
			local: addrs[localMem][lobj],
			glob:  addrs[globalMem][gobj],
			size:  a.Sys.Label(a.Comms[z].Label).Size,
		})
	}
	// Sort by local address; the global addresses must then be both
	// contiguous and in the same order.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j-1].local > spans[j].local; j-- {
			spans[j-1], spans[j] = spans[j], spans[j-1]
		}
	}
	for i := 1; i < len(spans); i++ {
		p, q := spans[i-1], spans[i]
		if q.local != p.local+p.size {
			return "local byte run broken between " + a.CommString(p.z) + " and " + a.CommString(q.z)
		}
		if q.glob != p.glob+p.size {
			return "global byte run broken or reordered between " + a.CommString(p.z) + " and " + a.CommString(q.z)
		}
	}
	return ""
}

// transferCost recomputes one transfer's worst-case duration from the
// raw cost parameters: lambda_O + ceil(size * num / den) ns.
func transferCost(a *let.Analysis, cm dma.CostModel, tr dma.Transfer) timeutil.Time {
	var size int64
	for _, z := range tr.Comms {
		size += a.Sys.Label(a.Comms[z].Label).Size
	}
	return cm.ProgramOverhead + cm.ISROverhead + timeutil.Time(timeutil.CeilDiv(size*cm.CopyNsNum, cm.CopyNsDen))
}

// replayLatencies replays the induced transfer sequence at instant t and
// returns each task's data-acquisition latency under per-task readiness
// (rules R1/R3): the completion time of the last transfer carrying any
// of its communications, zero for tasks with none.
func replayLatencies(a *let.Analysis, cm dma.CostModel, sched *dma.Schedule, t timeutil.Time) []timeutil.Time {
	lam := make([]timeutil.Time, len(a.Sys.Tasks))
	induced, _ := sched.InducedAt(a, t)
	var clock timeutil.Time
	for _, tr := range induced {
		clock += transferCost(a, cm, tr)
		for _, z := range tr.Comms {
			lam[a.Comms[z].Task] = clock
		}
	}
	return lam
}

// expectedComms re-derives C(s0) and every activation set from the raw
// system via the latest-write-before-read rule: producer job v feeds
// consumer job u iff v = floor(u*Tr/Tw), a write is necessary exactly
// when some consumer's job picks it, and a read is necessary exactly
// when its picked write differs from the previous job's (or u = 0).
func expectedComms(sys *model.System) map[let.Comm][]timeutil.Time {
	out := make(map[let.Comm][]timeutil.Time)
	h, err := sys.Hyperperiod()
	if err != nil {
		return out
	}
	for _, sl := range sys.SharedLabels() {
		tw := sl.Producer.Period
		writeSet := make(map[timeutil.Time]bool)
		for _, cons := range sl.Consumers {
			tr := cons.Period
			readSet := make(map[timeutil.Time]bool)
			prev := int64(-1)
			for u := int64(0); u*int64(tr) < int64(h); u++ {
				v := timeutil.FloorDiv(u*int64(tr), int64(tw))
				writeSet[timeutil.Time(v*int64(tw))] = true
				if v != prev {
					readSet[timeutil.Time(u*int64(tr))] = true
				}
				prev = v
			}
			out[let.Comm{Kind: let.Read, Task: cons.ID, Label: sl.Label.ID}] = ordered.Keys(readSet)
		}
		out[let.Comm{Kind: let.Write, Task: sl.Producer.ID, Label: sl.Label.ID}] = ordered.Keys(writeSet)
	}
	return out
}

func equalTimes(a, b []timeutil.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// preview renders at most the first eight instants, keeping violation
// messages readable on dense co-prime systems.
func preview(ts []timeutil.Time) []timeutil.Time {
	if len(ts) <= 8 {
		return ts
	}
	return ts[:8]
}
