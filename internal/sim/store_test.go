package sim

// Tests for the durable result store integration: fingerprint hygiene,
// warm restarts across runner generations, simulator-version staleness,
// corrupt-entry fallback, and the ResetStats counter boundary.

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"regcache/internal/core"
	"regcache/internal/store"
)

func testStoreJob() Job {
	return Job{
		Scheme: UseBased(16, 2, core.IndexFilteredRR),
		Bench:  "gzip",
		Opts:   Options{Insts: 2000},
	}
}

func openTestStore(t *testing.T, dir string) *ResultStore {
	t.Helper()
	rs, err := OpenResultStore(dir, store.Options{})
	if err != nil {
		t.Fatalf("OpenResultStore: %v", err)
	}
	return rs
}

func TestFingerprintCanonicalization(t *testing.T) {
	j := testStoreJob()
	base := fingerprintJob(SimulatorVersion, j)

	// Defaulted options and their explicit spellings hash identically.
	jd := j
	jd.Opts = j.Opts.withDefaults()
	if fingerprintJob(SimulatorVersion, jd) != base {
		t.Error("defaulted options must not change the fingerprint")
	}
	zero := j
	zero.Opts.Insts = 0 // defaults to DefaultInsts, a different budget
	if fingerprintJob(SimulatorVersion, zero) == base {
		t.Error("different defaulted budget must change the fingerprint")
	}

	// One interval is the bit-identical guard mode, but it still routes
	// through the interval executor, so it is honestly a distinct key.
	// Warm-up instructions only matter (and are only normalized to a
	// nonzero default) when intervals > 1.
	for name, alt := range map[string]Job{
		"bench":     {Scheme: j.Scheme, Bench: "mcf", Opts: j.Opts},
		"insts":     {Scheme: j.Scheme, Bench: j.Bench, Opts: Options{Insts: 2001}},
		"scheme":    {Scheme: UseBased(32, 2, core.IndexFilteredRR), Bench: j.Bench, Opts: j.Opts},
		"track":     {Scheme: j.Scheme, Bench: j.Bench, Opts: Options{Insts: 2000, TrackLifetimes: true}},
		"intervals": {Scheme: j.Scheme, Bench: j.Bench, Opts: Options{Insts: 2000, Intervals: 2}},
		"warmup":    {Scheme: j.Scheme, Bench: j.Bench, Opts: Options{Insts: 2000, Intervals: 2, WarmupInsts: 500}},
	} {
		if fingerprintJob(SimulatorVersion, alt) == base {
			t.Errorf("changing %s must change the fingerprint", name)
		}
	}
	if fingerprintJob(SimulatorVersion+1, j) == base {
		t.Error("bumping the simulator version must change the fingerprint")
	}

	// Interval-option normalization folds equivalent spellings together:
	// warm-up is meaningless (and zeroed) for serial and K=1 runs, and an
	// explicit default warm-up spells the same run as an implicit one.
	k1 := j
	k1.Opts.Intervals = 1
	k1Noise := k1
	k1Noise.Opts.WarmupInsts = 999
	if fingerprintJob(SimulatorVersion, k1Noise) != fingerprintJob(SimulatorVersion, k1) {
		t.Error("warm-up must not perturb a K=1 fingerprint (it is normalized away)")
	}
	k2 := j
	k2.Opts.Intervals = 2
	k2Explicit := k2
	k2Explicit.Opts.WarmupInsts = DefaultWarmupInsts
	if fingerprintJob(SimulatorVersion, k2Explicit) != fingerprintJob(SimulatorVersion, k2) {
		t.Error("explicit default warm-up must hash like the implicit default")
	}
}

// TestStoreKeysPinned pins literal store keys, so that reworking how
// options are checked or carried cannot silently re-key a durable store.
// The keys embed SimulatorVersion, so they also pin it at 4.
func TestStoreKeysPinned(t *testing.T) {
	use, err := ParseSchemeSpec("use:64x2")
	if err != nil {
		t.Fatal(err)
	}
	port, err := ParseSchemeSpec("port:16x2:p2")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		s    Scheme
		o    Options
		want string
	}{
		{use, Options{}, "ea545779672a2fc230196a0451275ac7e97dba755e844e0c7713f7a38e3f2cf3"},
		{use, Options{Intervals: 4}, "a65b512eb70a3159e1da9fc01bdaee5b0a6220bfdd2ba1e1c580656a325b1a08"},
		{use, Options{Threads: 4}, "c09194b5f02550056a1fbfab4bd3e976d110a7c19cd2df1622a3c0687b212264"},
		{port, Options{Threads: 2}, "5fec6ad5e2fb92c7175d2fb88cfa9562c21bda610ff7cee738d0f2fc674bd15c"},
	} {
		if got := Fingerprint(Job{Scheme: tc.s, Bench: "gzip", Opts: tc.o}).String(); got != tc.want {
			t.Errorf("%s/gzip %+v: key %s, want %s", tc.s.Name, tc.o, got, tc.want)
		}
	}
}

// TestRunnerWarmRestart is the store's core contract: a second runner
// generation on the same directory replays finished jobs from disk —
// zero simulations, identical results.
func TestRunnerWarmRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	j := testStoreJob()

	r1 := NewRunnerWith(2, NewWorkloadCache())
	rs1 := openTestStore(t, dir)
	if err := r1.UseStore(rs1); err != nil {
		t.Fatalf("UseStore: %v", err)
	}
	cold, err := r1.Run(context.Background(), j.Bench, j.Scheme, j.Opts)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	r1.Close() // drains the flush queue
	if st := r1.Stats(); st.JobsRun != 1 || st.StoreHits != 0 || st.StoreWrites != 1 {
		t.Fatalf("cold generation stats: %+v", st)
	}
	if err := rs1.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	r2 := NewRunnerWith(2, NewWorkloadCache())
	defer r2.Close()
	rs2 := openTestStore(t, dir)
	defer rs2.Close()
	if err := r2.UseStore(rs2); err != nil {
		t.Fatalf("UseStore: %v", err)
	}
	warm, err := r2.Run(context.Background(), j.Bench, j.Scheme, j.Opts)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if st := r2.Stats(); st.JobsRun != 0 || st.StoreHits != 1 {
		t.Fatalf("warm generation must not simulate: %+v", st)
	}
	// The store's fidelity contract is the serialized surface: every
	// document built from a replayed result is byte-identical to one built
	// from the fresh result. (core.Stats carries unexported mid-run
	// scratch fields that deliberately do not persist.)
	coldJSON, _ := json.Marshal(cold)
	warmJSON, _ := json.Marshal(warm)
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Errorf("store round trip changed the result:\ncold %s\nwarm %s", coldJSON, warmJSON)
	}
	if !reflect.DeepEqual(NewRunRecord(j.Bench, j.Scheme, j.Opts, cold), NewRunRecord(j.Bench, j.Scheme, j.Opts, warm)) {
		t.Error("store round trip changed the curated run record")
	}
}

// TestStoreVersionBump proves staleness safety: entries written under one
// simulator version never match under another.
func TestStoreVersionBump(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	j := testStoreJob()

	rs := openTestStore(t, dir)
	r1 := NewRunnerWith(1, NewWorkloadCache())
	if err := r1.UseStore(rs); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Run(context.Background(), j.Bench, j.Scheme, j.Opts); err != nil {
		t.Fatal(err)
	}
	r1.Close()

	// Same directory, same job, "newer timing model".
	r2 := NewRunnerWith(1, NewWorkloadCache())
	defer r2.Close()
	if err := r2.UseStore(rs.WithSimulatorVersion(SimulatorVersion + 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Run(context.Background(), j.Bench, j.Scheme, j.Opts); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.StoreHits != 0 || st.JobsRun != 1 {
		t.Fatalf("version bump must force re-simulation: %+v", st)
	}
	rs.Close()
}

// TestStoreCorruptEntryFallsBackToSimulate plants an undecodable payload
// at the correct key: the runner must count it, re-simulate, and its
// fresh append must supersede the junk for the next generation.
func TestStoreCorruptEntryFallsBackToSimulate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	j := testStoreJob()

	rs := openTestStore(t, dir)
	if err := rs.Store().Put(fingerprintJob(SimulatorVersion, j), []byte("not json")); err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWith(1, NewWorkloadCache())
	if err := r.UseStore(rs); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), j.Bench, j.Scheme, j.Opts); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if st := r.Stats(); st.StoreCorrupt != 1 || st.JobsRun != 1 || st.StoreHits != 0 {
		t.Fatalf("corrupt entry handling: %+v", st)
	}
	rs.Close()

	// The re-simulated result superseded the junk: next generation hits.
	rs2 := openTestStore(t, dir)
	defer rs2.Close()
	r2 := NewRunnerWith(1, NewWorkloadCache())
	defer r2.Close()
	if err := r2.UseStore(rs2); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Run(context.Background(), j.Bench, j.Scheme, j.Opts); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.StoreHits != 1 || st.JobsRun != 0 {
		t.Fatalf("superseding append did not take: %+v", st)
	}
}

// TestStoreOldPayloadsSuperseded: an entry an older build wrote — a
// version-1 JSON payload, or a version-2 payload under another layout
// hash — reads as StoreGetCorrupt, never as a misdecoded hit; the next Put
// supersedes it and the following Get hits.
func TestStoreOldPayloadsSuperseded(t *testing.T) {
	j := testStoreJob()
	res, err := Execute(DefaultWorkloads(), j.Bench, j.Scheme, j.Opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRunRecord(j.Bench, j.Scheme, j.Opts.withDefaults(), res)
	otherLayout := EncodeStoredPayload(j.Bench, j.Scheme, j.Opts, res)
	otherLayout[1] ^= 0x80
	for name, old := range map[string][]byte{
		"v1 json":      encodeV1Payload(t, rec, res),
		"other layout": otherLayout,
	} {
		rs := openTestStore(t, filepath.Join(t.TempDir(), "store"))
		if err := rs.Store().Put(fingerprintJob(SimulatorVersion, j), old); err != nil {
			t.Fatal(err)
		}
		if _, st := rs.Get(j); st != StoreGetCorrupt {
			t.Errorf("%s: Get status %v, want StoreGetCorrupt", name, st)
		}
		if err := rs.Put(j, res); err != nil {
			t.Fatal(err)
		}
		got, st := rs.Get(j)
		if st != StoreGetHit {
			t.Errorf("%s: Get after Put: status %v, want StoreGetHit", name, st)
		} else if !reflect.DeepEqual(got, jsonRoundTrip(t, res)) {
			t.Errorf("%s: superseding entry decodes to a different result", name)
		}
		rs.Close()
	}
}

func TestUseStoreAfterStartRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	j := testStoreJob()
	r := NewRunnerWith(1, NewWorkloadCache())
	defer r.Close()
	if _, err := r.Run(context.Background(), j.Bench, j.Scheme, j.Opts); err != nil {
		t.Fatal(err)
	}
	rs := openTestStore(t, dir)
	defer rs.Close()
	if err := r.UseStore(rs); err == nil {
		t.Fatal("UseStore after the pool started must be refused")
	}
}

// TestResetStats: the snapshot returned is the closed generation; the
// live counters restart from zero while the memo cache stays warm.
func TestResetStats(t *testing.T) {
	j := testStoreJob()
	r := NewRunnerWith(1, NewWorkloadCache())
	defer r.Close()
	if _, err := r.Run(context.Background(), j.Bench, j.Scheme, j.Opts); err != nil {
		t.Fatal(err)
	}
	prev := r.ResetStats()
	if prev.JobsRun != 1 {
		t.Fatalf("snapshot: %+v", prev)
	}
	if st := r.Stats(); st.JobsRun != 0 || st.CacheHits != 0 || st.SimWall != 0 {
		t.Fatalf("counters must restart from zero: %+v", st)
	}
	// The memo survives the counter reset: a rerun is a cache hit in the
	// new generation, not a new simulation mixed into old totals.
	if _, err := r.Run(context.Background(), j.Bench, j.Scheme, j.Opts); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.JobsRun != 0 || st.CacheHits != 1 {
		t.Fatalf("post-reset generation: %+v", st)
	}
}
