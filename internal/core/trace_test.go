package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"regcache/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// traceCache builds a tiny deterministic cache for event-trace tests:
// 4 entries, 2 ways (2 sets), use-based policies, round-robin indexing
// (sets alternate 0,1,0,1,... in allocation order), no shadow.
func traceCache(t obs.Tracer) *Cache {
	c := New(Config{
		Entries: 4, Ways: 2,
		Insert: InsertUseBased, Replace: ReplaceUseBased, Index: IndexRoundRobin,
		MaxPRegs: 8,
	})
	c.SetTracer(t)
	return c
}

// driveTraceScript runs a fixed access sequence covering every cache event
// kind: write, hit, write-filtered, filtered miss, fill, eviction with a
// non-zero remaining-use count, conflict miss, pinned insertion, and
// invalidate-on-free.
func driveTraceScript(c *Cache) {
	s0 := c.Allocate(0, 3) // set 0
	c.Produce(0, s0, 3, false, false, 10)
	c.Read(0, s0, 11) // hit, 2 uses left
	c.Read(0, s0, 12) // hit, 1 use left

	s1 := c.Allocate(1, 2) // set 1
	c.Produce(1, s1, 2, false, false, 13)

	s2 := c.Allocate(2, 1) // set 0
	c.Produce(2, s2, 1, false, false, 14)

	s3 := c.Allocate(3, 0)                // set 1
	c.Produce(3, s3, 0, false, false, 15) // zero remaining uses: filtered
	c.Read(3, s3, 16)                     // miss on the filtered value
	c.Fill(3, s3, 18)                     // backing file supplies it

	s4 := c.Allocate(4, 2) // set 0, now full: evicts p0 with 1 use left
	c.Produce(4, s4, 2, false, false, 20)
	c.NoteBypassUse(4, s4) // stage-2 bypass consumer: resident count drops

	c.Read(0, s0, 21) // p0 was evicted: conflict-class miss

	s5 := c.Allocate(5, 7) // set 1, full: evicts p3 (0 uses); pinned insert
	c.Produce(5, s5, 7, true, false, 22)

	c.Free(1, 23) // invalidate p1's resident entry
}

// TestCacheEventGolden locks the exact NDJSON event stream the script
// produces. Regenerate with go test ./internal/core -run Golden -update.
func TestCacheEventGolden(t *testing.T) {
	var buf bytes.Buffer
	log := obs.NewCacheLog(&buf)
	driveTraceScript(traceCache(log))
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "cachelog.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("cache event stream diverged from golden\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestCacheLogAggregates checks the sink's event counts against the
// cache's own statistics for the same run.
func TestCacheLogAggregates(t *testing.T) {
	var buf bytes.Buffer
	log := obs.NewCacheLog(&buf)
	c := traceCache(log)
	driveTraceScript(c)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]uint64{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var ev struct{ Ev, Miss string }
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		counts[ev.Ev]++
		if ev.Miss != "" {
			counts["miss:"+ev.Miss]++
		}
	}

	checks := []struct {
		key  string
		want uint64
	}{
		{obs.CacheWrite.String(), c.Stats.InitialWrites},
		{obs.CacheFill.String(), c.Stats.Fills},
		{obs.CacheHit.String(), c.Stats.Hits},
		{obs.CacheMiss.String(), c.Stats.Misses},
		{obs.CacheEvict.String(), c.Stats.Evictions},
		{obs.CacheInvalidate.String(), c.Stats.Invalidations},
		{obs.CacheWriteFiltered.String(), c.Stats.WritesFiltered},
		{"miss:" + obs.MissKindName(int8(MissFiltered)), c.Stats.MissBy[MissFiltered]},
		{"miss:" + obs.MissKindName(int8(MissConflict)), c.Stats.MissBy[MissConflict]},
	}
	for _, ck := range checks {
		if counts[ck.key] != ck.want {
			t.Errorf("%s: log holds %d, cache counted %d", ck.key, counts[ck.key], ck.want)
		}
	}
	// The script evicts p0 with 1 remaining use and p3 with 0: the evict
	// histogram is the Figure 5 distribution source.
	eu := log.EvictUses()
	if eu.N() != 2 || eu.Count(1) != 1 || eu.Count(0) != 1 {
		t.Errorf("evict remaining-use histogram = %v, want one 0 and one 1", eu)
	}
}

// TestNilTracerAllocs verifies the disabled-tracing fast path adds no
// allocations to any cache operation (the acceptance gate for threading
// trace hooks through the hot loop).
func TestNilTracerAllocs(t *testing.T) {
	c := traceCache(nil)
	p := PReg(0)
	allocs := testing.AllocsPerRun(1000, func() {
		set := c.Allocate(p, 2)
		c.Produce(p, set, 2, false, false, 5)
		c.Read(p, set, 6)
		c.NoteBypassUse(p, set)
		c.Fill(p, set, 7)
		c.Free(p, 8)
		p = (p + 1) % 8
	})
	if allocs != 0 {
		t.Fatalf("cache ops with nil tracer allocate %.1f per run, want 0", allocs)
	}
}

// TestTracedAllocs bounds the cost of the enabled path: the CacheLog sink
// itself must stay allocation-free per event (buffers are reused).
func TestTracedAllocs(t *testing.T) {
	log := obs.NewCacheLog(nopWriter{})
	c := traceCache(log)
	p := PReg(0)
	allocs := testing.AllocsPerRun(1000, func() {
		set := c.Allocate(p, 2)
		c.Produce(p, set, 2, false, false, 5)
		c.Read(p, set, 6)
		c.Free(p, 8)
		p = (p + 1) % 8
	})
	if allocs != 0 {
		t.Fatalf("cache ops with CacheLog tracer allocate %.1f per run, want 0", allocs)
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
