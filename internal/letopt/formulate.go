// Package letopt encodes the optimization problem of Section VI as a mixed
// integer linear program over the solver in internal/milp: it jointly
// selects the memory layout of every label copy (adjacency variables AD and
// position variables PL, Constraints 4-5), the assignment of LET
// communications to DMA transfer slots (CG/CGI, Constraint 1), the
// transfer order constraints of the LET semantics (Constraints 7-8), the
// data-acquisition deadlines (RG/RGI/lambda, Constraints 2-3 and 9) and
// Property 3 (Constraint 10), under the objectives NO-OBJ, OBJ-DMAT
// (Eq. 4) and OBJ-DEL (Eq. 5).
//
// Deviation from the paper (documented in DESIGN.md): the printed
// Constraint 6 is necessary but not sufficient for contiguity — a transfer
// consisting of two disjoint adjacent pairs satisfies every instance of the
// printed inequality while being fragmented. This package replaces it with
// an exact chain-counting encoding: for every activation pattern t and
// every transfer slot g, the number of both-memory-adjacent consecutive
// pairs inside the slot must equal (number of active communications in the
// slot) - (slot in use), which holds iff the active labels form a single
// contiguous, identically-ordered run in both memories. The encoding uses
// only continuous linearization variables (ADB, Y) on top of the
// paper's binaries, so the branching space is unchanged.
//
// Times inside the MILP are expressed in microseconds (float64); all
// interface types use integer nanoseconds.
package letopt

import (
	"fmt"
	"sort"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/milp"
	"letdma/internal/model"
	"letdma/internal/ordered"
	"letdma/internal/timeutil"
)

// usOf converts a Time to float64 microseconds.
func usOf(t timeutil.Time) float64 { return float64(t) / float64(timeutil.Microsecond) }

// formulation carries the MILP model plus the variable registry needed to
// decode solutions and build warm starts.
type formulation struct {
	a     *let.Analysis
	cm    dma.CostModel
	gamma dma.Deadlines
	obj   dma.Objective
	G     int // number of transfer slots (1-based slots 1..G)

	m *milp.Model

	cg  [][]milp.VarID // cg[z][g-1]
	cgi []milp.VarID   // per comm
	rg  map[model.TaskID][]milp.VarID
	rgi map[model.TaskID]milp.VarID
	lam map[model.TaskID]milp.VarID

	ad map[model.MemoryID]map[[2]int]milp.VarID // object-index pairs incl. dummies
	pl map[model.MemoryID][]milp.VarID          // per object index

	objsOf  map[model.MemoryID][]dma.Object
	objIdx  map[model.MemoryID]map[dma.Object]int
	adb     map[[2]int]milp.VarID        // comm-pair (z1, z2), same class, distinct labels
	y       map[[3]int]milp.VarID        // (z1, z2, g-1)
	pattern map[string][]int             // pattern key -> active comms
	minGap  map[string]timeutil.Time     // pattern key -> tightest next-instant gap
	tasks   []model.TaskID               // tasks with communications, sorted
	comp    map[model.TaskID][]int       // completion comms per task (reads, or writes if none)
	objVar  milp.VarID                   // rho or maxRGI, when applicable
	lambdaM float64                      // big-M for Constraint 9
	bytesAt map[string]int64             // total bytes per pattern
	classOf map[int]let.DirectionClass   // per comm
	members map[let.DirectionClass][]int // per class
}

// start/end dummy object indices are appended after the real objects.
func (f *formulation) dummyStart(mem model.MemoryID) int { return len(f.objsOf[mem]) }
func (f *formulation) dummyEnd(mem model.MemoryID) int   { return len(f.objsOf[mem]) + 1 }

// patternKey builds a canonical key for an active communication set.
func patternKey(zs []int) string { return fmt.Sprint(zs) }

// newFormulation builds the full MILP.
func newFormulation(a *let.Analysis, cm dma.CostModel, gamma dma.Deadlines, obj dma.Objective, slots int) (*formulation, error) {
	n := a.NumComms()
	if slots <= 0 || slots > n {
		slots = n
	}
	f := &formulation{
		a: a, cm: cm, gamma: gamma, obj: obj, G: slots,
		m:       milp.NewModel(),
		rg:      make(map[model.TaskID][]milp.VarID),
		rgi:     make(map[model.TaskID]milp.VarID),
		lam:     make(map[model.TaskID]milp.VarID),
		ad:      make(map[model.MemoryID]map[[2]int]milp.VarID),
		pl:      make(map[model.MemoryID][]milp.VarID),
		objIdx:  make(map[model.MemoryID]map[dma.Object]int),
		adb:     make(map[[2]int]milp.VarID),
		y:       make(map[[3]int]milp.VarID),
		pattern: make(map[string][]int),
		minGap:  make(map[string]timeutil.Time),
		comp:    make(map[model.TaskID][]int),
		bytesAt: make(map[string]int64),
		classOf: make(map[int]let.DirectionClass),
		members: make(map[let.DirectionClass][]int),
	}
	f.objsOf = dma.RequiredObjects(a)
	for mem, objs := range f.objsOf {
		idx := make(map[dma.Object]int, len(objs))
		for i, o := range objs {
			idx[o] = i
		}
		f.objIdx[mem] = idx
	}
	for z := range a.Comms {
		cl := a.Class(z)
		f.classOf[z] = cl
		f.members[cl] = append(f.members[cl], z)
	}
	f.collectTasks()
	f.collectPatterns()

	f.addAssignmentVars()
	f.addLayoutVars()
	f.addAdjacencyLinks()
	f.addContiguity()
	f.addOrderingConstraints()
	f.addLatencyConstraints()
	f.addProperty3()
	f.setObjective()
	return f, nil
}

func (f *formulation) collectTasks() {
	seen := make(map[model.TaskID]bool)
	for _, c := range f.a.Comms {
		seen[c.Task] = true
	}
	f.tasks = ordered.Keys(seen)
	for _, id := range f.tasks {
		ws, rs := f.a.GroupsFor(0, id)
		// Completion comms: reads; for write-only tasks, writes (rule R1;
		// see DESIGN.md for the reconciliation with the paper's RGI).
		if len(rs) > 0 {
			f.comp[id] = rs
		} else {
			f.comp[id] = ws
		}
	}
}

// collectPatterns dedupes the activation patterns of T* and records, per
// pattern, the tightest distance to the next communication instant
// (for Constraint 10) and the total bytes moved.
func (f *formulation) collectPatterns() {
	instants := f.a.Instants()
	for i, t := range instants {
		zs := f.a.ActiveAt(t)
		key := patternKey(zs)
		var next timeutil.Time
		if i+1 < len(instants) {
			next = instants[i+1]
		} else {
			next = f.a.H
		}
		gap := next - t
		if _, ok := f.pattern[key]; !ok {
			f.pattern[key] = zs
			f.minGap[key] = gap
			var bytes int64
			for _, z := range zs {
				bytes += f.a.Size(z)
			}
			f.bytesAt[key] = bytes
		} else if gap < f.minGap[key] {
			f.minGap[key] = gap
		}
	}
}

// patternKeys returns the pattern keys sorted with s0 first, then by key.
func (f *formulation) patternKeys() []string {
	keys := ordered.Keys(f.pattern)
	s0 := patternKey(f.a.ActiveAt(0))
	sort.SliceStable(keys, func(i, j int) bool {
		if keys[i] == s0 {
			return keys[j] != s0
		}
		return false
	})
	return keys
}

// addAssignmentVars creates CG, CGI, RG, RGI and Constraints 1-3.
func (f *formulation) addAssignmentVars() {
	n := f.a.NumComms()
	f.cg = make([][]milp.VarID, n)
	f.cgi = make([]milp.VarID, n)
	for z := 0; z < n; z++ {
		f.cg[z] = make([]milp.VarID, f.G)
		sum := milp.NewExpr(0)
		link := milp.NewExpr(0)
		for g := 1; g <= f.G; g++ {
			v := f.m.AddBinary(fmt.Sprintf("CG[%d,%d]", z, g))
			f.cg[z][g-1] = v
			sum = sum.Add(v, 1)
			link = link.Add(v, float64(g))
		}
		// Constraint 1: every communication in exactly one transfer.
		f.m.AddEQ(fmt.Sprintf("C1[%d]", z), sum, 1)
		f.cgi[z] = f.m.AddContinuous(fmt.Sprintf("CGI[%d]", z), 1, float64(f.G))
		f.m.AddEQ(fmt.Sprintf("CGIlink[%d]", z), link.Add(f.cgi[z], -1), 0)
	}
	// Prefix symmetry breaking: slot g+1 may only be used when slot g is.
	// Encoded without indicator variables: n * |slot g| >= |slot g+1|,
	// exact at integer points.
	for g := 1; g < f.G; g++ {
		e := milp.NewExpr(0)
		for z := 0; z < n; z++ {
			e = e.Add(f.cg[z][g-1], float64(n)).Add(f.cg[z][g], -1)
		}
		f.m.AddGE(fmt.Sprintf("Uprefix[%d]", g), e, 0)
	}
	// RG/RGI per task (Constraints 2-3, with max linearized as >=).
	for _, id := range f.tasks {
		rgs := make([]milp.VarID, f.G)
		sum := milp.NewExpr(0)
		link := milp.NewExpr(0)
		for g := 1; g <= f.G; g++ {
			v := f.m.AddBinary(fmt.Sprintf("RG[%d,%d]", id, g))
			rgs[g-1] = v
			sum = sum.Add(v, 1)
			link = link.Add(v, float64(g))
		}
		f.rg[id] = rgs
		f.m.AddEQ(fmt.Sprintf("C2[%d]", id), sum, 1)
		rgi := f.m.AddContinuous(fmt.Sprintf("RGI[%d]", id), 1, float64(f.G))
		f.rgi[id] = rgi
		f.m.AddEQ(fmt.Sprintf("RGIlink[%d]", id), link.Add(rgi, -1), 0)
		// Constraint 3: RGI_i >= CGI_z for every completion communication.
		for _, z := range f.comp[id] {
			f.m.AddGE(fmt.Sprintf("C3[%d,%d]", id, z), milp.Sum(1, rgi).Add(f.cgi[z], -1), 0)
		}
	}
}

// addLayoutVars creates AD and PL with Constraints 4-5 per memory.
func (f *formulation) addLayoutVars() {
	for _, mem := range f.memories() {
		objs := f.objsOf[mem]
		k := len(objs)
		ads := make(map[[2]int]milp.VarID)
		f.ad[mem] = ads
		start, end := f.dummyStart(mem), f.dummyEnd(mem)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j {
					ads[[2]int{i, j}] = f.m.AddBinary(fmt.Sprintf("AD[m%d,%d,%d]", mem, i, j))
				}
			}
			ads[[2]int{start, i}] = f.m.AddBinary(fmt.Sprintf("AD[m%d,S,%d]", mem, i))
			ads[[2]int{i, end}] = f.m.AddBinary(fmt.Sprintf("AD[m%d,%d,E]", mem, i))
		}
		// Constraint 4: unique successor and predecessor per object.
		for i := 0; i < k; i++ {
			succ := milp.NewExpr(0)
			for j := 0; j < k; j++ {
				if j != i {
					succ = succ.Add(ads[[2]int{i, j}], 1)
				}
			}
			succ = succ.Add(ads[[2]int{i, end}], 1)
			f.m.AddEQ(fmt.Sprintf("C4succ[m%d,%d]", mem, i), succ, 1)
			pred := milp.NewExpr(0)
			for j := 0; j < k; j++ {
				if j != i {
					pred = pred.Add(ads[[2]int{j, i}], 1)
				}
			}
			pred = pred.Add(ads[[2]int{start, i}], 1)
			f.m.AddEQ(fmt.Sprintf("C4pred[m%d,%d]", mem, i), pred, 1)
		}
		startSum := milp.NewExpr(0)
		endSum := milp.NewExpr(0)
		for i := 0; i < k; i++ {
			startSum = startSum.Add(ads[[2]int{start, i}], 1)
			endSum = endSum.Add(ads[[2]int{i, end}], 1)
		}
		f.m.AddEQ(fmt.Sprintf("C4start[m%d]", mem), startSum, 1)
		f.m.AddEQ(fmt.Sprintf("C4end[m%d]", mem), endSum, 1)

		// PL positions with big-M increments (Constraint 5) and the
		// paper's redundant sum-anchoring.
		pls := make([]milp.VarID, k)
		bigM := float64(k + 1)
		plSum := milp.NewExpr(0)
		for i := 0; i < k; i++ {
			pls[i] = f.m.AddContinuous(fmt.Sprintf("PL[m%d,%d]", mem, i), 0, float64(k-1))
			plSum = plSum.Add(pls[i], 1)
		}
		f.pl[mem] = pls
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i == j {
					continue
				}
				adv := ads[[2]int{i, j}]
				// PL_j >= PL_i + 1 - M(1-AD); PL_j <= PL_i + 1 + M(1-AD).
				f.m.AddGE(fmt.Sprintf("C5lo[m%d,%d,%d]", mem, i, j),
					milp.Sum(1, pls[j]).Add(pls[i], -1).Add(adv, -bigM), 1-bigM)
				f.m.AddLE(fmt.Sprintf("C5hi[m%d,%d,%d]", mem, i, j),
					milp.Sum(1, pls[j]).Add(pls[i], -1).Add(adv, bigM), 1+bigM)
			}
			// The successor of START sits at position 0.
			f.m.AddLE(fmt.Sprintf("C5s[m%d,%d]", mem, i),
				milp.Sum(1, pls[i]).Add(ads[[2]int{start, i}], bigM), bigM)
		}
		f.m.AddEQ(fmt.Sprintf("PLsum[m%d]", mem), plSum, float64(k*(k-1))/2)
	}
}

// memories returns the memory IDs with objects, sorted.
func (f *formulation) memories() []model.MemoryID {
	return ordered.Keys(f.objsOf)
}

// addAdjacencyLinks creates the ADB AND-variables: ADB[z1,z2] = 1 iff the
// label of z2 directly follows the label of z1 in both the shared memory
// and the common local memory.
func (f *formulation) addAdjacencyLinks() {
	gmem := f.a.Sys.GlobalMemory()
	for _, zs := range f.membersSorted() {
		for _, z1 := range zs {
			for _, z2 := range zs {
				if z1 == z2 || f.a.Comms[z1].Label == f.a.Comms[z2].Label {
					continue
				}
				lo1, go1 := dma.CommObjects(f.a, z1)
				lo2, go2 := dma.CommObjects(f.a, z2)
				lmem := f.a.LocalMemory(z1)
				adg := f.ad[gmem][[2]int{f.objIdx[gmem][go1], f.objIdx[gmem][go2]}]
				adl := f.ad[lmem][[2]int{f.objIdx[lmem][lo1], f.objIdx[lmem][lo2]}]
				v := f.m.AddContinuous(fmt.Sprintf("ADB[%d,%d]", z1, z2), 0, 1)
				f.adb[[2]int{z1, z2}] = v
				f.m.AddLE(fmt.Sprintf("ADBg[%d,%d]", z1, z2), milp.Sum(1, v).Add(adg, -1), 0)
				f.m.AddLE(fmt.Sprintf("ADBl[%d,%d]", z1, z2), milp.Sum(1, v).Add(adl, -1), 0)
				f.m.AddGE(fmt.Sprintf("ADBand[%d,%d]", z1, z2), milp.Sum(1, v).Add(adg, -1).Add(adl, -1), -1)
			}
		}
	}
}

func (f *formulation) membersSorted() [][]int {
	classes := ordered.KeysFunc(f.members, func(a, b let.DirectionClass) int {
		if a.Mem != b.Mem {
			return int(a.Mem) - int(b.Mem)
		}
		return int(a.Kind) - int(b.Kind)
	})
	out := make([][]int, 0, len(classes))
	for _, cl := range classes {
		out = append(out, f.members[cl])
	}
	return out
}

// addContiguity creates the Y chain variables and, per activation pattern
// and slot, the chain-counting inequality that replaces Constraint 6: the
// active communications of a slot minus the active both-memory-adjacent
// consecutive pairs inside it is the number of contiguous runs, which must
// not exceed one. Y has no AND lower bound: both the run-count inequality
// and Constraint 10 push Y upward, and its upper bounds cap it at the exact
// AND value, so integral solutions are exact.
func (f *formulation) addContiguity() {
	// Y[z1,z2,g] <= ADB[z1,z2] AND CG[z1,g] AND CG[z2,g].
	adbs := f.adbSorted()
	for _, adb := range adbs {
		z1, z2 := adb.z1, adb.z2
		for g := 1; g <= f.G; g++ {
			v := f.m.AddContinuous(fmt.Sprintf("Y[%d,%d,%d]", z1, z2, g), 0, 1)
			f.y[[3]int{z1, z2, g - 1}] = v
			f.m.AddLE(fmt.Sprintf("Ya[%d,%d,%d]", z1, z2, g), milp.Sum(1, v).Add(adb.v, -1), 0)
			f.m.AddLE(fmt.Sprintf("Y1[%d,%d,%d]", z1, z2, g), milp.Sum(1, v).Add(f.cg[z1][g-1], -1), 0)
			f.m.AddLE(fmt.Sprintf("Y2[%d,%d,%d]", z1, z2, g), milp.Sum(1, v).Add(f.cg[z2][g-1], -1), 0)
		}
	}
	// Per pattern and slot: active count - active edges <= 1.
	for _, key := range f.patternKeys() {
		zs := f.pattern[key]
		active := make(map[int]bool, len(zs))
		for _, z := range zs {
			active[z] = true
		}
		for g := 1; g <= f.G; g++ {
			runs := milp.NewExpr(0)
			for _, z := range zs {
				runs = runs.Add(f.cg[z][g-1], 1)
			}
			for _, adb := range adbs {
				if active[adb.z1] && active[adb.z2] {
					runs = runs.Add(f.y[[3]int{adb.z1, adb.z2, g - 1}], -1)
				}
			}
			f.m.AddLE(fmt.Sprintf("chain[%s,%d]", key, g), runs, 1)
		}
	}
}

type adbEntry struct {
	z1, z2 int
	v      milp.VarID
}

func (f *formulation) adbSorted() []adbEntry {
	out := make([]adbEntry, 0, len(f.adb))
	for _, k := range ordered.KeysFunc(f.adb, ordered.Pair2) {
		out = append(out, adbEntry{z1: k[0], z2: k[1], v: f.adb[k]})
	}
	return out
}

// addOrderingConstraints encodes Constraints 7 and 8.
func (f *formulation) addOrderingConstraints() {
	// Constraint 7 (Property 1): per task, writes before reads.
	for _, id := range f.tasks {
		ws, rs := f.a.GroupsFor(0, id)
		for _, w := range ws {
			for _, r := range rs {
				f.m.AddGE(fmt.Sprintf("C7[%d,%d,%d]", id, w, r),
					milp.Sum(1, f.cgi[r]).Add(f.cgi[w], -1), 1)
			}
		}
	}
	// Constraint 8 (Property 2): per label, write before every read.
	for z, c := range f.a.Comms {
		if c.Kind != let.Write {
			continue
		}
		for z2, c2 := range f.a.Comms {
			if c2.Kind == let.Read && c2.Label == c.Label {
				f.m.AddGE(fmt.Sprintf("C8[%d,%d]", z, z2),
					milp.Sum(1, f.cgi[z2]).Add(f.cgi[z], -1), 1)
			}
		}
	}
}

// addLatencyConstraints encodes Constraint 9: per task and candidate last
// slot, lambda_i >= gbar*lambda_O + omega_c * prefix bytes, activated by
// RG[i,gbar]; and lambda_i <= gamma_i.
func (f *formulation) addLatencyConstraints() {
	needLam := f.obj == dma.MinDelayRatio || len(f.gamma) > 0
	if !needLam {
		return
	}
	lamO := usOf(f.cm.PerTransferOverhead())
	var totalBytes int64
	for z := range f.a.Comms {
		totalBytes += f.a.Size(z)
	}
	f.lambdaM = float64(f.G)*lamO + f.copyUs(totalBytes) + 1
	for _, id := range f.tasks {
		lam := f.m.AddContinuous(fmt.Sprintf("lam[%d]", id), 0, milp.Inf)
		f.lam[id] = lam
		for gbar := 1; gbar <= f.G; gbar++ {
			// lam >= gbar*lamO + sum_{g<=gbar} sum_z sigma_z*CG[z,g]*wc
			//        - (1 - RG[i,gbar]) * M
			e := milp.Sum(1, lam)
			for g := 1; g <= gbar; g++ {
				for z := range f.a.Comms {
					e = e.Add(f.cg[z][g-1], -f.copyUs(f.a.Size(z)))
				}
			}
			e = e.Add(f.rg[id][gbar-1], -f.lambdaM)
			f.m.AddGE(fmt.Sprintf("C9[%d,%d]", id, gbar), e, float64(gbar)*lamO-f.lambdaM)
		}
		if g, ok := f.gamma[id]; ok {
			f.m.AddLE(fmt.Sprintf("C9cap[%d]", id), milp.Sum(1, lam), usOf(g))
		}
	}
}

// copyUs converts a byte count to copy time in microseconds.
func (f *formulation) copyUs(bytes int64) float64 {
	return float64(f.cm.CopyCost(bytes)) / float64(timeutil.Microsecond)
}

// addProperty3 encodes Constraint 10 per activation pattern: the whole
// induced schedule must fit before the tightest next instant. The number
// of induced transfers at pattern t is |C(t)| minus the active chain
// edges, so the constraint reduces to a lower bound on the Y sum:
//
//	lambda_O * (|C(t)| - sum Y) + omega_c * bytes(t) <= minGap(t).
func (f *formulation) addProperty3() {
	lamO := usOf(f.cm.PerTransferOverhead())
	adbs := f.adbSorted()
	for _, key := range f.patternKeys() {
		zs := f.pattern[key]
		active := make(map[int]bool, len(zs))
		for _, z := range zs {
			active[z] = true
		}
		gapUs := usOf(f.minGap[key])
		fixed := f.copyUs(f.bytesAt[key]) + lamO*float64(len(zs))
		e := milp.NewExpr(0)
		for _, adb := range adbs {
			if active[adb.z1] && active[adb.z2] {
				for g := 1; g <= f.G; g++ {
					e = e.Add(f.y[[3]int{adb.z1, adb.z2, g - 1}], -lamO)
				}
			}
		}
		f.m.AddLE(fmt.Sprintf("C10[%s]", key), e, gapUs-fixed)
	}
}

// setObjective installs the objective of Eq. (4) or Eq. (5).
func (f *formulation) setObjective() {
	switch f.obj {
	case dma.MinTransfers:
		v := f.m.AddInteger("maxRGI", 1, float64(f.G))
		f.objVar = v
		for _, id := range f.tasks {
			f.m.AddGE(fmt.Sprintf("obj4[%d]", id), milp.Sum(1, v).Add(f.rgi[id], -1), 0)
		}
		f.m.SetObjective(milp.Minimize, milp.Sum(1, v))
	case dma.MinDelayRatio:
		v := f.m.AddContinuous("rho", 0, milp.Inf)
		f.objVar = v
		for _, id := range f.tasks {
			ti := usOf(f.a.Sys.Task(id).Period)
			f.m.AddLE(fmt.Sprintf("obj5[%d]", id), milp.Sum(1, f.lam[id]).Add(v, -ti), 0)
		}
		f.m.SetObjective(milp.Minimize, milp.Sum(1, v))
	default:
		f.m.SetObjective(milp.Minimize, milp.NewExpr(0))
	}
}

// checkCapacity returns an error when a declared memory capacity (Section
// III-A) cannot hold the label copies the analysis requires that memory to
// host. The formulation places every required object unconditionally
// (Constraints 3-5 position them all), so capacities reduce to a constant
// feasibility check rather than a constraint family; without this gate the
// solver would return layouts that dma.Validate rejects.
func (f *formulation) checkCapacity() error {
	for _, mem := range f.memories() {
		capBytes := f.a.Sys.MemoryCapacity(mem)
		if capBytes <= 0 {
			continue
		}
		var bytes int64
		for _, o := range f.objsOf[mem] {
			bytes += f.a.Sys.Label(o.Label).Size
		}
		if bytes > capBytes {
			return fmt.Errorf("letopt: memory %d needs %d bytes for label copies but holds %d",
				mem, bytes, capBytes)
		}
	}
	return nil
}

// checkGapSanity returns an error when even an empty schedule cannot fit a
// pattern's copy bytes in its gap (fast infeasibility signal).
func (f *formulation) checkGapSanity() error {
	lamO := usOf(f.cm.PerTransferOverhead())
	for _, key := range f.patternKeys() {
		if f.copyUs(f.bytesAt[key])+lamO > usOf(f.minGap[key]) {
			return fmt.Errorf("letopt: pattern %s cannot meet Property 3: %.1fus copy in %.1fus gap",
				key, f.copyUs(f.bytesAt[key]), usOf(f.minGap[key]))
		}
	}
	return nil
}

// Model exposes the underlying MILP (for LP-format dumps and tests).
func (f *formulation) Model() *milp.Model { return f.m }

// branchPriorities assigns branch-and-bound priorities: the transfer
// assignment (CG) dominates the solution structure and is branched first,
// then the layout adjacencies (AD), then the last-read selectors (RG).
func (f *formulation) branchPriorities() []int {
	prio := make([]int, f.m.NumVars())
	for _, row := range f.cg {
		for _, v := range row {
			prio[v] = 3
		}
	}
	for _, mem := range f.memories() {
		// Every adjacency variable gets the same tier: the keyed store
		// commutes, so iteration order cannot matter here.
		//letvet:ordered
		for _, v := range f.ad[mem] {
			prio[v] = 2
		}
	}
	for _, id := range f.tasks {
		for _, v := range f.rg[id] {
			prio[v] = 1
		}
	}
	return prio
}
