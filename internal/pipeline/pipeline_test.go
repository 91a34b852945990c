package pipeline

import (
	"reflect"
	"testing"

	"regcache/internal/core"
	"regcache/internal/prog"
)

// run simulates n instructions of the named benchmark under cfg.
func run(t *testing.T, bench string, cfg Config, n uint64) Result {
	t.Helper()
	prof, ok := prog.ProfileByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	pl := New(cfg, mustGenerate(t, prof))
	return pl.Run(n)
}

func TestMonolithicBaselineRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = SchemeMonolithic
	cfg.RFLatency = 3
	r := run(t, "gzip", cfg, 50_000)
	if r.Stats.Retired < 50_000 {
		t.Fatalf("retired %d, want >= 50000", r.Stats.Retired)
	}
	if r.IPC() < 0.3 || r.IPC() > 8 {
		t.Fatalf("IPC %.3f out of plausible range", r.IPC())
	}
	t.Logf("gzip monolithic L3: %s", r)
}

func TestCacheSchemeRuns(t *testing.T) {
	cfg := DefaultConfig()
	r := run(t, "gzip", cfg, 50_000)
	if r.Stats.Retired < 50_000 {
		t.Fatalf("retired %d", r.Stats.Retired)
	}
	if r.Cache.Reads == 0 {
		t.Fatal("register cache never read")
	}
	if r.Cache.HitRate() < 0.5 {
		t.Fatalf("cache hit rate %.3f implausibly low", r.Cache.HitRate())
	}
	if r.BypassFrac() < 0.2 || r.BypassFrac() > 0.95 {
		t.Fatalf("bypass fraction %.3f out of plausible range", r.BypassFrac())
	}
	t.Logf("gzip use-based cache: %s", r)
}

// TestResultRatiosOfZero: every ratio method of an empty Result reads 0,
// not NaN, which encoding/json refuses to marshal.
func TestResultRatiosOfZero(t *testing.T) {
	v := reflect.ValueOf(Result{})
	ratios := 0
	for i := 0; i < v.NumMethod(); i++ {
		m := v.Method(i)
		if mt := m.Type(); mt.NumIn() != 0 || mt.NumOut() != 1 || mt.Out(0).Kind() != reflect.Float64 {
			continue
		}
		ratios++
		if got := m.Call(nil)[0].Float(); got != 0 {
			t.Errorf("Result{}.%s() = %v, want 0", v.Type().Method(i).Name, got)
		}
	}
	if ratios != 8 {
		t.Errorf("Result has %d ratio methods, want 8", ratios)
	}
}

func TestTwoLevelSchemeRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = SchemeTwoLevel
	cfg.TwoLevelCfg.L1Entries = 96
	r := run(t, "gzip", cfg, 50_000)
	if r.Stats.Retired < 50_000 {
		t.Fatalf("retired %d", r.Stats.Retired)
	}
	t.Logf("gzip two-level: %s", r)
	t.Logf("  migrations=%d recoveryStalls=%d renameStalls=%d",
		r.TLMigrations, r.TLRecoveryStalls, r.TLRenameStalls)
}

func TestRegisterCacheMissPathExercised(t *testing.T) {
	// A tiny direct-mapped cache must miss and fill via the backing file.
	cfg := DefaultConfig()
	cfg.CacheCfg = core.Config{Entries: 8, Ways: 1, Insert: core.InsertAlways,
		Replace: core.ReplaceLRU, Index: core.IndexPReg}
	r := run(t, "gzip", cfg, 30_000)
	if r.Stats.RCMissEvents == 0 {
		t.Fatal("no register cache miss events on an 8-entry direct-mapped cache")
	}
	if r.BackingReads == 0 {
		t.Fatal("backing file never read despite misses")
	}
	if r.Cache.Fills == 0 {
		t.Fatal("no fills recorded")
	}
	t.Logf("8-entry DM: %s", r)
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	a := run(t, "vpr", cfg, 20_000)
	b := run(t, "vpr", cfg, 20_000)
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Retired != b.Stats.Retired ||
		a.Cache.Hits != b.Cache.Hits || a.Stats.Mispredicts != b.Stats.Mispredicts {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestAllBenchmarksAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, name := range prog.ProfileNames() {
		for _, scheme := range []Scheme{SchemeMonolithic, SchemeCache, SchemeTwoLevel} {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			r := run(t, name, cfg, 20_000)
			if r.Stats.Retired < 20_000 {
				t.Errorf("%s/%s: retired %d", name, scheme, r.Stats.Retired)
			}
			if r.IPC() <= 0.05 || r.IPC() > 8 {
				t.Errorf("%s/%s: IPC %.3f implausible", name, scheme, r.IPC())
			}
		}
	}
}
