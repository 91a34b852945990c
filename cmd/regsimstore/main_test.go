package main

// The admin subcommands are plain functions over args slices, so they are
// tested directly against real store directories: list/stats/verify on a
// populated store, verify's non-zero exit on planted corruption, and the
// compact/gc maintenance paths.

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regcache/internal/core"
	"regcache/internal/pipeline"
	"regcache/internal/sim"
	"regcache/internal/store"
)

// populate writes n fabricated results into a fresh store directory.
func populate(t *testing.T, dir string, n int) {
	t.Helper()
	rs, err := sim.OpenResultStore(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for i := 0; i < n; i++ {
		j := sim.Job{
			Scheme: sim.UseBased(16+16*i, 2, core.IndexFilteredRR),
			Bench:  "gzip",
			Opts:   sim.Options{Insts: 1000},
		}
		res := pipeline.Result{IPC: 1.5 + float64(i)}
		if err := rs.Put(j, res); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLsStatsVerify(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	populate(t, dir, 3)

	for _, cmd := range []func([]string) error{cmdLs, cmdStats, cmdVerify} {
		if err := cmd([]string{"-dir", dir}); err != nil {
			t.Fatalf("%T: %v", cmd, err)
		}
	}
	if err := cmdLs(nil); err == nil {
		t.Error("ls without -dir must fail")
	}
	if err := cmdStats([]string{"-dir", filepath.Join(dir, "missing")}); err == nil {
		t.Error("stats on a missing directory must fail")
	}
}

// TestLsCountsOldPayloads: ls lists every current-version entry and
// counts an entry an older build wrote (a version-1 JSON payload) as
// undecodable rather than failing or misreading it.
func TestLsCountsOldPayloads(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	populate(t, dir, 2)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v1 := []byte(`{"payload_version":1,"record":{"scheme":{"name":"use-16x2-filtered","kind":"cache"},"bench":"gzip","insts":1000},"result":{"IPC":1.5}}`)
	if err := st.Put(store.Key{1}, v1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	lsErr := cmdLs([]string{"-dir", dir})
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if lsErr != nil {
		t.Fatalf("ls: %v", lsErr)
	}
	if !strings.Contains(string(out), "2 entries (1 undecodable)") {
		t.Errorf("ls output lacks the entry and undecodable counts:\n%s", out)
	}
	if n := strings.Count(string(out), "gzip"); n != 2 {
		t.Errorf("ls listed %d gzip entries, want 2:\n%s", n, out)
	}
}

func TestVerifyFlagsCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	populate(t, dir, 2)

	// Flip one byte inside the first record's payload.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.rcs"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 60); err != nil {
		t.Fatal(err)
	}
	f.Close()

	err = cmdVerify([]string{"-dir", dir})
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("verify on a flipped store: %v, want corrupt-records error", err)
	}
}

func TestCompactAndGC(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	populate(t, dir, 4)
	populate(t, dir, 4) // second pass supersedes all four entries

	if err := cmdCompact([]string{"-dir", dir}); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := cmdGC([]string{"-dir", dir, "-max-bytes", "1"}); err != nil {
		t.Fatalf("gc: %v", err)
	}
	if err := cmdGC([]string{"-dir", dir}); err == nil {
		t.Error("gc without -max-bytes must fail")
	}

	st, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 0 {
		t.Errorf("gc to 1 byte left %d entries", st.Len())
	}
}
