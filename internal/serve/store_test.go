package serve

// End-to-end warm-start proof for the durable result store: a daemon
// generation populates the store through real HTTP sweeps, is drained,
// and a second generation on the same directory answers the identical
// sweep byte-for-byte without running a single simulation. A third
// generation under a bumped simulator version must ignore every entry.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"regcache/internal/sim"
	"regcache/internal/store"
)

// storeServer builds a Server whose backend runner persists to dir.
func storeServer(t *testing.T, dir string, version int) (*Server, *sim.ResultStore) {
	t.Helper()
	rs, err := sim.OpenResultStore(dir, store.Options{})
	if err != nil {
		t.Fatalf("OpenResultStore: %v", err)
	}
	if version != sim.SimulatorVersion {
		rs = rs.WithSimulatorVersion(version)
	}
	runner := sim.NewRunnerWith(2, sim.NewWorkloadCache())
	if err := runner.UseStore(rs); err != nil {
		t.Fatalf("UseStore: %v", err)
	}
	return New(Config{Backend: runner, MaxSyncPoints: 16}), rs
}

func TestWarmStartServesSweepFromStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	body := `{"benches":["gzip","mcf"],"schemes":["use:16x2:filtered","mono:3"],"insts":2000}`
	const points = 4 // 2 benches x 2 schemes

	// Generation 1: cold. Every point simulates and is appended before
	// its result reaches the response; the drain closes the runner before
	// the store closes (the regsimd shutdown ordering).
	srv1, rs1 := storeServer(t, dir, sim.SimulatorVersion)
	ts1 := httptest.NewServer(srv1.Handler())
	resp, cold := postSweep(t, ts1, body)
	if resp.StatusCode != 200 {
		t.Fatalf("cold sweep: %d %s", resp.StatusCode, cold)
	}
	st1 := srv1.backend.Stats()
	if st1.JobsRun != points || st1.StoreHits != 0 || st1.StoreWrites != points {
		t.Fatalf("cold generation stats: %+v", st1)
	}
	if err := srv1.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()
	if err := rs1.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// Generation 2: warm restart on the same directory. The identical
	// sweep must not simulate anything and must serve the identical bytes.
	srv2, rs2 := storeServer(t, dir, sim.SimulatorVersion)
	ts2 := httptest.NewServer(srv2.Handler())
	resp, warm := postSweep(t, ts2, body)
	if resp.StatusCode != 200 {
		t.Fatalf("warm sweep: %d %s", resp.StatusCode, warm)
	}
	st2 := srv2.backend.Stats()
	if st2.JobsRun != 0 {
		t.Fatalf("warm restart simulated %d points, want 0 (%+v)", st2.JobsRun, st2)
	}
	if st2.StoreHits != points {
		t.Fatalf("warm restart store hits = %d, want %d (%+v)", st2.StoreHits, points, st2)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm response differs from cold:\ncold %s\nwarm %s", cold, warm)
	}
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatalf("drain 2: %v", err)
	}
	ts2.Close()
	rs2.Close()

	// Generation 3: simulator-version bump. A store full of old-model
	// entries must serve zero hits — everything re-simulates.
	srv3, rs3 := storeServer(t, dir, sim.SimulatorVersion+1)
	ts3 := httptest.NewServer(srv3.Handler())
	resp, bumped := postSweep(t, ts3, body)
	if resp.StatusCode != 200 {
		t.Fatalf("bumped sweep: %d %s", resp.StatusCode, bumped)
	}
	st3 := srv3.backend.Stats()
	if st3.StoreHits != 0 || st3.JobsRun != points {
		t.Fatalf("version bump must invalidate the store: %+v", st3)
	}
	if err := srv3.Drain(context.Background()); err != nil {
		t.Fatalf("drain 3: %v", err)
	}
	ts3.Close()
	rs3.Close()
}
