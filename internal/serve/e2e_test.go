package serve

import (
	"path/filepath"
	"testing"
	"time"
)

// The tests in this file run the REAL solver stack (no testSolve hook)
// on the reduced two-core case study, locking the end-to-end contracts
// the hook-driven tests can only simulate.

// TestE2ESolveLite: a comb job on the lite system completes with the
// known schedule shape, and a FastSearch MILP job comes back certified.
// The certified job minimises transfers (dmat). A del job is no proof
// test: the del MILP's LP bound stays at 0 (the delay ratios have no
// useful lower bound yet), so FastSearch spends its whole time limit at
// gap 1 and ends "feasible". Its certificate then passes on the incumbent
// replay alone, since an undecided result skips the cross-check.
func TestE2ESolveLite(t *testing.T) {
	cfg := Config{
		JournalPath:   filepath.Join(t.TempDir(), "j"),
		Workers:       2,
		CertTimeLimit: 2 * time.Second,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Error(err)
		}
	}()
	s.Start()

	comb, err := s.Submit(testSpec(0.3))
	if err != nil {
		t.Fatal(err)
	}
	fast := testSpec(0.3)
	fast.Objective = "dmat"
	fast.Solver = "milp"
	fast.Fast = true
	fast.Workers = 2
	fast.MILPTimeLimit = 20 * time.Second
	fastSt, err := s.Submit(fast)
	if err != nil {
		t.Fatal(err)
	}
	if fastSt.Key == comb.Key {
		t.Fatal("milp+fast spec collided with the comb job key")
	}

	combFinal := waitTerminal(t, s, comb.Key)
	if combFinal.State != StateDone || !combFinal.Result.HasIncumbent() {
		t.Fatalf("comb job = %+v", combFinal.Result)
	}
	if combFinal.Result.NumTransfers != len(combFinal.Result.Schedule) {
		t.Errorf("NumTransfers %d != schedule lines %d",
			combFinal.Result.NumTransfers, len(combFinal.Result.Schedule))
	}

	fastFinal := waitTerminal(t, s, fastSt.Key)
	if fastFinal.State != StateDone {
		t.Fatalf("fast job state = %s (result %+v)", fastFinal.State, fastFinal.Result)
	}
	if !fastFinal.Result.Certified {
		t.Error("FastSearch result was cached without a certificate")
	}
	// Race instrumentation slows the MILP ~20x past its time budget,
	// where a limit stop legitimately reports "feasible"; uninstrumented
	// runs must prove optimality.
	if st := fastFinal.Result.MILPStatus; st != "optimal" && !(raceDetectorEnabled && st == "feasible") {
		t.Errorf("fast MILP status = %q, want optimal", st)
	}
	if !fastFinal.Result.HasIncumbent() || fastFinal.Result.Objective <= 0 {
		t.Errorf("certified dmat result = %+v; want a schedule with a positive transfer bound",
			fastFinal.Result)
	}
}

// TestE2EDeadlineAnytimeIncumbent is the acceptance lock for the deadline
// path on the real solver: a MILP job under a ~zero deadline is
// interrupted at its first boundary and completes with state "deadline"
// and the warm-start incumbent — never an error, never an empty result.
func TestE2EDeadlineAnytimeIncumbent(t *testing.T) {
	cfg := Config{JournalPath: filepath.Join(t.TempDir(), "j"), Workers: 1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Error(err)
		}
	}()
	s.Start()

	spec := testSpec(0.3)
	spec.Solver = "milp"
	spec.Deadline = time.Nanosecond // expires before the MILP's first node
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.Key)
	if final.State != StateDeadline {
		t.Fatalf("state = %s (result %+v); want deadline", final.State, final.Result)
	}
	r := final.Result
	if !r.HasIncumbent() {
		t.Fatal("deadline job returned no anytime incumbent")
	}
	if r.StopCause != "interrupt" {
		t.Errorf("stop cause = %q, want interrupt", r.StopCause)
	}
	if r.Error != "" {
		t.Errorf("deadline completion carries an error: %q", r.Error)
	}
	if r.Attempts != 1 {
		t.Errorf("deadline job was retried: attempts = %d", r.Attempts)
	}
}

// TestE2EInfeasibleCached: an infeasibly tight alpha is a decided,
// cacheable outcome — failed-state jobs are never retried or re-solved.
func TestE2EInfeasibleCached(t *testing.T) {
	cfg := Config{JournalPath: filepath.Join(t.TempDir(), "j"), Workers: 1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Error(err)
		}
	}()
	s.Start()

	st, err := s.Submit(testSpec(0.01)) // too tight for any lite layout
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.Key)
	if final.State != StateInfeasible {
		t.Fatalf("alpha=0.01 job = %s (result %+v); want infeasible", final.State, final.Result)
	}
	if final.Result.Attempts != 1 {
		t.Errorf("infeasible job retried: attempts = %d", final.Result.Attempts)
	}
	again, err := s.Submit(testSpec(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateInfeasible {
		t.Errorf("resubmit = %s; want cached infeasible", again.State)
	}
}
