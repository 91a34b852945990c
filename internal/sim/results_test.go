package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"regcache/internal/core"
)

// TestResultsRoundTrip writes a real run's results file and reads it back:
// the -json schema must survive a decode with its semantic fields intact.
func TestResultsRoundTrip(t *testing.T) {
	r := NewRunner(2)
	defer r.Close()
	s := UseBased(64, 2, core.IndexFilteredRR)
	res, err := r.Run(t.Context(), "gzip", s, Options{Insts: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRunRecord("gzip", s, Options{Insts: 20_000}, res)
	f := NewResultsFile("test", []RunRecord{rec}, r, 3*time.Second)

	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteResults(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != ResultsSchemaVersion || got.Generator != "test" {
		t.Errorf("header mangled: %+v", got)
	}
	if len(got.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(got.Runs))
	}
	rr := got.Runs[0]
	if rr.Bench != "gzip" || rr.Scheme.Name != s.Name || rr.Scheme.Kind != "cache" {
		t.Errorf("run identity mangled: %+v", rr)
	}
	if rr.IPC != res.IPC() || rr.Cycles != res.Stats.Cycles || rr.Retired != res.Stats.Retired {
		t.Errorf("performance fields mangled: %+v", rr)
	}
	if rr.Cache == nil {
		t.Fatal("cache record missing for a cache scheme")
	}
	if rr.Cache.Misses != res.Cache.Misses ||
		rr.Cache.MissFiltered+rr.Cache.MissCapacity+rr.Cache.MissConflict != res.Cache.Misses {
		t.Errorf("miss split inconsistent: %+v vs %+v", rr.Cache, res.Cache)
	}
	if rr.Scheme.Cache == nil || rr.Scheme.Cache.Entries != 64 {
		t.Errorf("scheme config not serialized: %+v", rr.Scheme)
	}
	if got.Runner == nil || got.Runner.JobsRun == 0 {
		t.Errorf("runner record missing: %+v", got.Runner)
	}
}

// TestReadResultsRejectsUnknownSchema guards the version gate downstream
// tooling relies on.
func TestReadResultsRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	doc := map[string]any{"schema_version": ResultsSchemaVersion + 99, "runs": []any{}}
	data, _ := json.Marshal(doc)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResults(path); err == nil {
		t.Fatal("unknown schema version accepted")
	}
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResults(path); err == nil {
		t.Fatal("malformed file accepted")
	}
}

// TestRunnerRecords checks the everything-this-process-simulated export:
// records come back deterministically ordered and only for successes.
func TestRunnerRecords(t *testing.T) {
	r := NewRunner(2)
	defer r.Close()
	s := Monolithic(3)
	for _, b := range []string{"gzip", "mcf"} {
		if _, err := r.Run(t.Context(), b, s, Options{Insts: 10_000}); err != nil {
			t.Fatal(err)
		}
	}
	// A failing job must not appear in the export.
	if _, err := r.Run(t.Context(), "no-such-bench", s, Options{Insts: 10_000}); err == nil {
		t.Fatal("bogus benchmark succeeded")
	}

	recs := RunnerRecords(r)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2: %+v", len(recs), recs)
	}
	for _, rec := range recs {
		if rec.IPC <= 0 || rec.Scheme.Kind != "monolithic" {
			t.Errorf("bad record %+v", rec)
		}
	}
	if recs[0].Bench == recs[1].Bench {
		t.Errorf("duplicate benches in export: %+v", recs)
	}
}
