package pipeline

import (
	"bytes"
	"encoding/json"
	"testing"

	"regcache/internal/core"
	"regcache/internal/obs"
	"regcache/internal/prog"
)

// TestCacheLogMatchesStats runs a real benchmark with the NDJSON sink
// attached and checks that the log's event counts equal the cache's own
// statistics — the tracer hooks cover every counting site exactly once.
func TestCacheLogMatchesStats(t *testing.T) {
	prof, ok := prog.ProfileByName("gzip")
	if !ok {
		t.Fatal("no gzip profile")
	}
	pl := New(DefaultConfig(), mustGenerate(t, prof))
	var buf bytes.Buffer
	log := obs.NewCacheLog(&buf)
	pl.SetTracer(log)
	r := pl.Run(20_000)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Every NDJSON line must parse; tally them by event and miss class.
	counts := map[string]uint64{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var ev struct{ Ev, Miss string }
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("line %d: %v", len(counts), err)
		}
		counts[ev.Ev]++
		if ev.Miss != "" {
			counts["miss:"+ev.Miss]++
		}
	}
	if len(counts) == 0 {
		t.Fatal("empty cache log")
	}
	cs := r.Cache
	checks := []struct {
		key  string
		want uint64
	}{
		{obs.CacheHit.String(), cs.Hits},
		{obs.CacheMiss.String(), cs.Misses},
		{obs.CacheWrite.String(), cs.InitialWrites},
		{obs.CacheFill.String(), cs.Fills},
		{obs.CacheWriteFiltered.String(), cs.WritesFiltered},
		{obs.CacheEvict.String(), cs.Evictions},
		{obs.CacheInvalidate.String(), cs.Invalidations},
		{"miss:" + obs.MissKindName(int8(core.MissFiltered)), cs.MissBy[core.MissFiltered]},
		{"miss:" + obs.MissKindName(int8(core.MissCapacity)), cs.MissBy[core.MissCapacity]},
		{"miss:" + obs.MissKindName(int8(core.MissConflict)), cs.MissBy[core.MissConflict]},
	}
	for _, ck := range checks {
		if counts[ck.key] != ck.want {
			t.Errorf("%s: log holds %d, stats counted %d", ck.key, counts[ck.key], ck.want)
		}
	}
	if log.EvictUses().N() != cs.Evictions {
		t.Errorf("evict-use histogram n = %d, want %d", log.EvictUses().N(), cs.Evictions)
	}
}

// TestChromeTraceMatchesStats runs a benchmark with the timeline sink and
// checks the trace is valid JSON whose retire/squash slice counts equal the
// pipeline's counters.
func TestChromeTraceMatchesStats(t *testing.T) {
	prof, ok := prog.ProfileByName("gzip")
	if !ok {
		t.Fatal("no gzip profile")
	}
	pl := New(DefaultConfig(), mustGenerate(t, prof))
	var buf bytes.Buffer
	ct := obs.NewChromeTrace(&buf, true)
	pl.SetTracer(ct)
	r := pl.Run(10_000)
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	counts := map[string]uint64{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			counts[e.Name]++
			if e.Dur < 0 {
				t.Fatalf("negative duration slice %+v", e)
			}
		}
	}
	if counts["retire"] != r.Stats.Retired {
		t.Errorf("retire slices %d, stats retired %d", counts["retire"], r.Stats.Retired)
	}
	if counts["squash"] != r.Stats.Squashed {
		t.Errorf("squash slices %d, stats squashed %d", counts["squash"], r.Stats.Squashed)
	}
	if counts["rename"] == 0 || counts["issue"] == 0 {
		t.Errorf("missing pipeline stages in trace: %v", counts)
	}
	if ct.Lanes() == 0 {
		t.Error("no lanes allocated")
	}
}

// TestTracerDeterminism checks tracing does not perturb simulation results:
// the same run with and without a tracer must retire in the same number of
// cycles with identical cache statistics.
func TestTracerDeterminism(t *testing.T) {
	prof, ok := prog.ProfileByName("mcf")
	if !ok {
		t.Fatal("no mcf profile")
	}
	base := New(DefaultConfig(), mustGenerate(t, prof)).Run(10_000)

	pl := New(DefaultConfig(), mustGenerate(t, prof))
	pl.SetTracer(obs.NewCacheLog(nopWriter{}))
	traced := pl.Run(10_000)

	if base.Stats.Cycles != traced.Stats.Cycles || base.Cache != traced.Cache {
		t.Errorf("tracing perturbed the simulation:\nbase   %+v\ntraced %+v", base.Stats, traced.Stats)
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
