package sim

// Run-layer tests for interval-parallel execution: the K=1 bit-identity
// guard across the full default scheme matrix, the documented stats
// epsilon for K>1, determinism of stitched runs, and the runner-level
// accounting (IntervalRuns, checkpoint-set sharing).

import (
	"context"
	"encoding/json"
	"testing"

	"regcache/internal/core"
)

// TestIntervalK1BitIdentical is the guard mode's contract at the run
// layer: Intervals=1 routes through the interval executor (checkpoint
// capture, NewAt, RunWindow) and must reproduce the serial path bit for
// bit — serialized RunRecords compare equal across the whole default
// scheme matrix.
func TestIntervalK1BitIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("determinism sweep; TestWorkloadCacheRaceHammer covers the racy paths")
	}
	benches := []string{"gzip", "mcf"}
	wc := NewWorkloadCache()
	for _, s := range workloadMatrix() {
		for _, b := range benches {
			serial, err := Execute(wc, b, s, Options{Insts: 20_000})
			if err != nil {
				t.Fatalf("%s/%s serial: %v", s.Name, b, err)
			}
			guard, err := Execute(wc, b, s, Options{Insts: 20_000, Intervals: 1})
			if err != nil {
				t.Fatalf("%s/%s K=1: %v", s.Name, b, err)
			}
			sj, err := json.Marshal(NewRunRecord(b, s, Options{Insts: 20_000}, serial))
			if err != nil {
				t.Fatal(err)
			}
			gj, err := json.Marshal(NewRunRecord(b, s, Options{Insts: 20_000, Intervals: 1}, guard))
			if err != nil {
				t.Fatal(err)
			}
			if string(sj) != string(gj) {
				t.Errorf("%s/%s: K=1 diverged from serial:\nserial: %s\nK=1:    %s", s.Name, b, sj, gj)
			}
		}
	}
}

// TestIntervalStatsEpsilon pins the documented bounded error of stitched
// K>1 runs against their serial reference. The bound is set at roughly 2x
// the worst observed divergence across the full default matrix (~3.7% of
// IPC at this budget; see DESIGN.md, interval-parallel simulation) so the
// test fails on a regression of the warming/stitching machinery, not on
// noise. The architectural stream must stay exact: retired instructions
// match the budget to within retire-width overshoot per window boundary.
func TestIntervalStatsEpsilon(t *testing.T) {
	if raceEnabled {
		t.Skip("simulation-heavy accuracy sweep, no concurrency under test")
	}
	const insts = 60_000
	const epsilon = 0.08
	benches := []string{"gzip", "mcf"}
	schemes := []Scheme{
		Monolithic(3),
		UseBased(64, 2, core.IndexFilteredRR),
		UseBased(64, 2, core.IndexFilteredRR).WithBacking(4),
		UseBased(32, 4, core.IndexMinimum),
		UseBased(64, 2, core.IndexFilteredRR).WithOracle(),
		TwoLevel(96, 2),
	}
	wc := NewWorkloadCache()
	for _, k := range []int{2, 4} {
		for _, s := range schemes {
			for _, b := range benches {
				serial, err := Execute(wc, b, s, Options{Insts: insts})
				if err != nil {
					t.Fatalf("%s/%s serial: %v", s.Name, b, err)
				}
				par, err := Execute(wc, b, s, Options{Insts: insts, Intervals: k})
				if err != nil {
					t.Fatalf("%s/%s K=%d: %v", s.Name, b, k, err)
				}
				rel := (par.IPC() - serial.IPC()) / serial.IPC()
				if rel < 0 {
					rel = -rel
				}
				if rel > epsilon {
					t.Errorf("%s/%s K=%d: IPC %.4f vs serial %.4f (%.2f%% off, documented epsilon %.0f%%)",
						s.Name, b, k, par.IPC(), serial.IPC(), 100*rel, 100*epsilon)
				}
				slack := uint64(8 * k)
				if par.Stats.Retired < insts-slack || par.Stats.Retired > insts+slack {
					t.Errorf("%s/%s K=%d: retired %d, want %d +/- %d (exact architectural stream)",
						s.Name, b, k, par.Stats.Retired, insts, slack)
				}
				iv := par.Intervals
				if iv == nil || iv.K != k {
					t.Fatalf("%s/%s K=%d: missing or wrong IntervalStats: %+v", s.Name, b, k, iv)
				}
			}
		}
	}
}

// TestIntervalDeterministic pins that interval-parallel runs are a pure
// function of their inputs at the run layer: two executions through two
// independent workload caches (fresh checkpoint captures) serialize
// identically.
func TestIntervalDeterministic(t *testing.T) {
	if raceEnabled {
		t.Skip("determinism sweep, no concurrency under test")
	}
	s := UseBased(64, 2, core.IndexFilteredRR)
	o := Options{Insts: 30_000, Intervals: 4}
	var got []string
	for i := 0; i < 2; i++ {
		r, err := Execute(NewWorkloadCache(), "gzip", s, o)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(data))
	}
	if got[0] != got[1] {
		t.Errorf("repeated interval runs diverged:\nfirst:  %s\nsecond: %s", got[0], got[1])
	}
}

// TestRunnerIntervalAccounting drives interval jobs through the memoizing
// runner and checks the layer's bookkeeping: IntervalRuns counts each
// simulated (not memoized) interval run, checkpoint sets are captured
// once per (workload, split) and shared, and serial runs are untouched.
func TestRunnerIntervalAccounting(t *testing.T) {
	wc := NewWorkloadCache()
	r := NewRunnerWith(4, wc)
	defer r.Close()

	o := Options{Insts: 8_000, Intervals: 2}
	schemes := []Scheme{UseBased(64, 2, core.IndexFilteredRR), Monolithic(3)}
	for _, s := range schemes {
		if _, err := r.Run(context.Background(), "gzip", s, o); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	// Memoized replay must not recount.
	if _, err := r.Run(context.Background(), "gzip", schemes[0], o); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), "gzip", schemes[0], Options{Insts: 8_000}); err != nil {
		t.Fatal(err)
	}

	st := r.Stats()
	if st.IntervalRuns != 2 {
		t.Errorf("IntervalRuns = %d, want 2 (one per simulated interval job)", st.IntervalRuns)
	}
	ws := wc.Stats()
	if ws.CheckpointBuilds != 1 {
		t.Errorf("CheckpointBuilds = %d, want 1 (both schemes share the default memory system)", ws.CheckpointBuilds)
	}
	if ws.CheckpointHits == 0 {
		t.Errorf("CheckpointHits = 0, want the second scheme to join the shared set")
	}
}
