package pipeline

import (
	"testing"

	"regcache/internal/prog"
)

// TestOracleUses: perfect use knowledge must not be worse than the
// history-based predictor — fewer misses on the same cache.
func TestOracleUses(t *testing.T) {
	prof, _ := prog.ProfileByName("twolf")
	p := mustGenerate(t, prof)
	cfg := DefaultConfig()
	pred := New(cfg, p).Run(60_000)
	cfg.OracleUses = true
	orac := New(cfg, p).Run(60_000)
	t.Logf("predicted: miss %.4f IPC %.3f; oracle: miss %.4f IPC %.3f",
		pred.Cache.MissRate(), pred.IPC(), orac.Cache.MissRate(), orac.IPC())
	if orac.Cache.MissRate() > pred.Cache.MissRate()*1.1 {
		t.Errorf("oracle misses (%.4f) materially exceed predicted (%.4f)",
			orac.Cache.MissRate(), pred.Cache.MissRate())
	}
	// Determinism under the oracle too.
	orac2 := New(cfg, p).Run(60_000)
	if orac2.Stats.Cycles != orac.Stats.Cycles {
		t.Error("oracle mode not deterministic")
	}
}
