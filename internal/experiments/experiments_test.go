package experiments

import (
	"strings"
	"testing"

	"regcache/internal/sim"
)

// testRunner serves the tests that do not count simulations, so the
// claims and figures that share a point simulate it once per test binary.
var testRunner = sim.NewRunner(0)

// tinyOptions keeps experiment tests fast: two benchmarks, small budget.
func tinyOptions() Options {
	return Options{Insts: 15_000, Benches: []string{"gzip", "twolf"}}
}

func TestRegistryComplete(t *testing.T) {
	// Every figure and table of the paper's evaluation must be registered.
	want := []string{"fig1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10",
		"table2", "fig11", "fig12", "sec3", "sec52", "sec53", "oracle"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for _, id := range want {
		e, ok := ByID(id)
		if !ok {
			t.Errorf("experiment %s missing", id)
			continue
		}
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %s incomplete", id)
		}
	}
	if _, ok := ByID("nonesuch"); ok {
		t.Error("unexpected experiment")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Paper: "claim"}
	r.Section("body line")
	r.Sectionf("value %d", 42)
	r.Note("observation %s", "here")
	s := r.String()
	for _, want := range []string{"=== x: T ===", "claim", "body line", "value 42", "note: observation here"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// Each experiment must run end-to-end on a tiny configuration and produce
// a non-empty report. The characterization experiments additionally assert
// the paper's qualitative orderings below.
func TestAllExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// The heavyweight sweeps get an even smaller budget.
	sweepIDs := map[string]bool{"fig6": true, "fig7": true, "fig11": true, "fig12": true, "sec53": true}
	for _, e := range All {
		o := tinyOptions()
		if sweepIDs[e.ID] {
			o.Insts = 8_000
			o.Benches = []string{"gzip"}
		}
		rep, err := e.Run(testRunner, o)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if len(rep.Body) == 0 {
			t.Errorf("%s: empty report body", e.ID)
		}
		if rep.ID != e.ID {
			t.Errorf("%s: report id %q", e.ID, rep.ID)
		}
	}
}

// Running the same experiment twice on one runner must serve the second
// run entirely from the runner's memo — at least one cache hit per
// repeated (scheme, bench, insts) triple, zero new simulations — and
// produce a byte-identical Report.
func TestExperimentRerunIsMemoizedAndIdentical(t *testing.T) {
	o := tinyOptions()
	e, ok := ByID("fig8")
	if !ok {
		t.Fatal("fig8 missing")
	}
	r := sim.NewRunner(0)
	defer r.Close()
	r1, err := e.Run(r, o)
	if err != nil {
		t.Fatal(err)
	}
	mid := r.Stats()
	r2, err := e.Run(r, o)
	if err != nil {
		t.Fatal(err)
	}
	delta := r.Stats().Sub(mid)
	if delta.JobsRun != 0 {
		t.Errorf("second run re-simulated %d jobs, want 0", delta.JobsRun)
	}
	// fig8 runs 6 schemes over the benches: every triple must hit.
	if want := uint64(6 * len(o.Benches)); delta.CacheHits < want {
		t.Errorf("second run cache hits = %d, want >= %d (one per repeated triple)", delta.CacheHits, want)
	}
	if r1.String() != r2.String() {
		t.Errorf("memoized rerun produced a different report:\n--- first\n%s\n--- second\n%s", r1, r2)
	}
}

// Experiments that share schemes (fig9/fig10/table2/sec3 all use the
// Section 5.4 characterization design points) must share simulations: the
// baseline is computed once per runner, not once per figure.
func TestExperimentsShareSimulations(t *testing.T) {
	o := tinyOptions()
	r := sim.NewRunner(0)
	defer r.Close()
	for _, id := range []string{"fig9", "fig10", "table2"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		before := r.Stats()
		if _, err := e.Run(r, o); err != nil {
			t.Fatal(err)
		}
		if id == "fig9" {
			continue // first of the group may simulate
		}
		if delta := r.Stats().Sub(before); delta.JobsRun != 0 {
			t.Errorf("%s re-simulated %d jobs despite fig9 having run the same schemes", id, delta.JobsRun)
		}
	}
}

func TestQuickOptions(t *testing.T) {
	q := Quick()
	if q.Insts == 0 || len(q.Benches) != 4 {
		t.Errorf("Quick() = %+v", q)
	}
	d := Options{}.withDefaults()
	if d.Insts == 0 || len(d.Benches) != 12 {
		t.Errorf("defaults = insts %d benches %d", d.Insts, len(d.Benches))
	}
}
