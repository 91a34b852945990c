package cli

import (
	"context"
	"flag"
	"reflect"
	"slices"
	"strings"
	"testing"

	"regcache/internal/sim"
)

// openRunner binds the runner flags on a fresh flag set, parses args and
// opens the runner they describe.
func openRunner(t *testing.T, args ...string) (*sim.Runner, func() error, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	rf := BindRunner(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return rf.Open()
}

// TestRunnerStoreRoundTrip: a runner opened on a -store directory writes
// its results, and its close drains them before releasing the writer
// lock, so a second open of the directory succeeds and replays the run as
// a store hit.
func TestRunnerStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sc, o := sim.Monolithic(3), sim.Options{Insts: 5000}

	r, closeRunner, err := openRunner(t, "-workers", "1", "-store", dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Run(context.Background(), "gzip", sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := closeRunner(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.JobsRun != 1 || st.StoreWrites != 1 {
		t.Fatalf("first run: %+v, want one simulation written to the store", st)
	}

	r2, closeRunner2, err := openRunner(t, "-workers", "1", "-store", dir)
	if err != nil {
		t.Fatalf("second open of the store directory: %v", err)
	}
	defer closeRunner2()
	got, err := r2.Run(context.Background(), "gzip", sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.StoreHits != 1 || st.JobsRun != 0 {
		t.Errorf("second run: %+v, want one store hit and no simulation", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("store replay differs from the simulated result")
	}
}

func TestRunnerRejectsEmptyPool(t *testing.T) {
	if _, _, err := openRunner(t, "-workers", "0"); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("-workers 0: error %v, want one naming -workers", err)
	}
}

func TestRunOptions(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	ro := BindRunOptions(fs)
	if err := fs.Parse([]string{"-intervals", "4", "-warmup", "100", "-threads", "2", "-interleave", "8"}); err != nil {
		t.Fatal(err)
	}
	want := sim.Options{Insts: 5000, Intervals: 4, WarmupInsts: 100, Threads: 2, Interleave: 8}
	if got := ro.Options(5000); got != want {
		t.Errorf("Options = %+v, want %+v", got, want)
	}
}

func TestSplitList(t *testing.T) {
	if got := SplitList(" a, ,b,,c "); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Errorf("SplitList = %q", got)
	}
	if got := SplitList(""); got != nil {
		t.Errorf("SplitList(\"\") = %q, want nil", got)
	}
}
