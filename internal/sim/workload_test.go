package sim

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"regcache/internal/core"
)

// workloadMatrix is the default scheme matrix the sharing tests sweep: every
// register-storage kind, both reference caches, the paper's design points
// across index schemes, and the oracle ablation (which additionally
// exercises the shared functional pre-pass).
func workloadMatrix() []Scheme {
	return []Scheme{
		Monolithic(1),
		Monolithic(3),
		LRU(64, 2, core.IndexRoundRobin),
		NonBypass(64, 2, core.IndexRoundRobin),
		UseBased(64, 2, core.IndexFilteredRR),
		UseBased(64, 2, core.IndexPReg),
		UseBased(32, 4, core.IndexMinimum),
		UseBased(64, 2, core.IndexFilteredRR).WithOracle(),
		UseBased(32, 4, core.IndexMinimum).WithOracle(), // same oracle table as above: keyed by workload, not scheme
		UseBased(64, 2, core.IndexFilteredRR).WithBacking(4),
		TwoLevel(96, 2),
	}
}

// TestWorkloadSharingBitIdentical runs the full default scheme matrix twice
// — first fully cold (a fresh WorkloadCache per run, so every run
// regenerates its program and oracle table) and then with one shared cache
// — and asserts the serialized ResultsFile records are bit-identical.
// Sharing pre-decoded workloads must be invisible in every simulated
// number.
func TestWorkloadSharingBitIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("determinism sweep, no concurrency; TestWorkloadCacheRaceHammer covers the racy paths")
	}
	benches := []string{"gzip", "mcf"}
	o := Options{Insts: 20_000}
	matrix := workloadMatrix()

	records := func(wc func() *WorkloadCache) []RunRecord {
		var out []RunRecord
		for _, s := range matrix {
			for _, b := range benches {
				r, err := Execute(wc(), b, s, o)
				if err != nil {
					t.Fatalf("%s/%s: %v", s.Name, b, err)
				}
				out = append(out, NewRunRecord(b, s, o, r))
			}
		}
		return out
	}

	cold := records(NewWorkloadCache) // new cache per run: nothing shared
	shared := NewWorkloadCache()
	warm := records(func() *WorkloadCache { return shared })

	coldJSON, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := json.Marshal(warm)
	if err != nil {
		t.Fatal(err)
	}
	if string(coldJSON) != string(warmJSON) {
		t.Errorf("shared workload cache changed simulated results:\ncold: %s\nshared: %s", coldJSON, warmJSON)
	}

	st := shared.Stats()
	if st.ProgramBuilds != uint64(len(benches)) {
		t.Errorf("shared cache built %d programs, want %d (one per benchmark)", st.ProgramBuilds, len(benches))
	}
	if st.OracleBuilds != uint64(len(benches)) {
		t.Errorf("shared cache built %d oracle tables, want %d (one per benchmark at this budget)", st.OracleBuilds, len(benches))
	}
	if st.ProgramHits == 0 || st.OracleHits == 0 {
		t.Errorf("shared cache saw no hits (%+v); the matrix should rerequest every workload", st)
	}
}

// TestWorkloadCacheRaceHammer drives one WorkloadCache from parallel runner
// workers (plus direct concurrent Program/Oracle requesters) and checks the
// results against serial references. Run under -race, this is the
// concurrency gate for the single-flight construction paths.
func TestWorkloadCacheRaceHammer(t *testing.T) {
	benches := []string{"gzip", "gcc", "mcf", "twolf"}
	schemes := []Scheme{
		UseBased(64, 2, core.IndexFilteredRR),
		UseBased(64, 2, core.IndexFilteredRR).WithOracle(),
		Monolithic(3),
	}
	o := Options{Insts: 10_000}
	if raceEnabled {
		o.Insts = 4_000 // the detector costs ~10× per simulated instruction
	}

	wc := NewWorkloadCache()
	r := NewRunnerWith(8, wc)
	defer r.Close()

	// Direct hammer: many goroutines demand every program and oracle table
	// while the pool is also simulating.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				for _, b := range benches {
					if _, err := wc.Program(b); err != nil {
						t.Errorf("Program(%s): %v", b, err)
					}
					if _, err := wc.Oracle(b, o.Insts); err != nil {
						t.Errorf("Oracle(%s): %v", b, err)
					}
				}
			}
		}()
	}

	type res struct {
		key  string
		json string
	}
	results := make(chan res, len(schemes)*len(benches))
	for _, s := range schemes {
		for _, b := range benches {
			wg.Add(1)
			go func(s Scheme, b string) {
				defer wg.Done()
				rr, err := r.Run(context.Background(), b, s, o)
				if err != nil {
					t.Errorf("%s/%s: %v", s.Name, b, err)
					return
				}
				data, err := json.Marshal(NewRunRecord(b, s, o, rr))
				if err != nil {
					t.Errorf("%s/%s: %v", s.Name, b, err)
					return
				}
				results <- res{key: s.Name + "/" + b, json: string(data)}
			}(s, b)
		}
	}
	wg.Wait()
	close(results)

	got := map[string]string{}
	for rr := range results {
		got[rr.key] = rr.json
	}
	for _, s := range schemes {
		for _, b := range benches {
			ref, err := Execute(NewWorkloadCache(), b, s, o)
			if err != nil {
				t.Fatalf("reference %s/%s: %v", s.Name, b, err)
			}
			refJSON, err := json.Marshal(NewRunRecord(b, s, o, ref))
			if err != nil {
				t.Fatal(err)
			}
			key := s.Name + "/" + b
			if got[key] != string(refJSON) {
				t.Errorf("%s diverged under the hammered cache:\ngot:  %s\nwant: %s", key, got[key], refJSON)
			}
		}
	}

	if st := wc.Stats(); st.ProgramBuilds != uint64(len(benches)) || st.OracleBuilds != uint64(len(benches)) {
		t.Errorf("hammered cache rebuilt workloads: %+v (want %d program and %d oracle builds)",
			st, len(benches), len(benches))
	}
}

// TestWorkloadCacheUnknownBench checks the error path stays an error on
// repeat requests (a failed build must not be memoized as success).
func TestWorkloadCacheUnknownBench(t *testing.T) {
	wc := NewWorkloadCache()
	for i := 0; i < 2; i++ {
		if _, err := wc.Program("no-such-bench"); err == nil {
			t.Fatalf("request %d: expected error for unknown benchmark", i)
		}
		if _, err := wc.Oracle("no-such-bench", 1000); err == nil {
			t.Fatalf("request %d: expected oracle error for unknown benchmark", i)
		}
	}
}
