package fleet_test

// BenchmarkFleetScatterGather measures the fabric, not the simulator: a
// synthetic backend sleeps a fixed per-point cost behind a small worker
// semaphore, so aggregate throughput scales with fleet width even on a
// single-core CI runner (the nodes sleep in parallel; they do not
// compute). cold models a store-miss sweep (every point pays the full
// simulation cost), warm a store-hit sweep (points are nearly free and
// the measurement is dominated by scatter/gather overhead itself).
//
// The committed BENCH_fleet.json baseline pins the tentpole claim: a
// 3-node fleet sustains at least ~2x the cold aggregate throughput of a
// single node on the same sweep.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"regcache/internal/pipeline"
	"regcache/internal/serve"
	"regcache/internal/sim"
)

// benchBody is a 6-scheme × all-benchmarks matrix — wide enough that
// consistent-hash placement is reasonably balanced at 3 nodes.
const benchBody = `{"benches":["all"],"schemes":["use:16x2:filtered","use:32x2:filtered","use:16x2:minimum","lru:16x2","mono:1","mono:3"],"insts":2000}`

// sleepyBackend is a serve.Backend whose per-point cost is pure wall
// time, bounded by a worker semaphore like a real pool.
type sleepyBackend struct {
	delay time.Duration
	sem   chan struct{}
	runs  atomic.Uint64
}

func newSleepyBackend(workers int, delay time.Duration) *sleepyBackend {
	return &sleepyBackend{delay: delay, sem: make(chan struct{}, workers)}
}

func (s *sleepyBackend) RunTimed(ctx context.Context, bench string, sc sim.Scheme, o sim.Options) (pipeline.Result, sim.PointTiming, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return pipeline.Result{}, sim.PointTiming{}, ctx.Err()
	}
	defer func() { <-s.sem }()
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return pipeline.Result{}, sim.PointTiming{}, ctx.Err()
	}
	s.runs.Add(1)
	return pipeline.Result{Stats: pipeline.Stats{Cycles: 1, Retired: 1}}, sim.PointTiming{}, nil
}

func (s *sleepyBackend) Stats() sim.RunnerStats { return sim.RunnerStats{JobsRun: s.runs.Load()} }
func (s *sleepyBackend) Close()                 {}

// startSleepyFleet boots n nodes (2 sleepy workers each) and returns the
// gateway URL. n == 1 is a plain standalone server — the baseline a fleet
// must beat.
func startSleepyFleet(b *testing.B, n int, delay time.Duration) string {
	b.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		cfg := serve.Config{
			Backend:         newSleepyBackend(2, delay),
			MaxQueuedPoints: 1024,
			MaxSyncPoints:   128,
		}
		if n > 1 {
			for j, u := range urls {
				if j != i {
					cfg.Peers = append(cfg.Peers, u)
				}
			}
			cfg.SelfURL = urls[i]
		}
		srv := serve.New(cfg)
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		b.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = srv.Drain(ctx)
		})
	}
	return urls[0]
}

func BenchmarkFleetScatterGather(b *testing.B) {
	benchPoints := 6 * len(sim.Benchmarks())
	modes := []struct {
		name  string
		delay time.Duration
	}{
		{"cold", 5 * time.Millisecond},
		{"warm", 100 * time.Microsecond},
	}
	for _, mode := range modes {
		for _, nodes := range []int{1, 3} {
			b.Run(fmt.Sprintf("%s-%dnode", mode.name, nodes), func(b *testing.B) {
				gw := startSleepyFleet(b, nodes, mode.delay)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					resp, err := http.Post(gw+"/v1/sweep", "application/json", strings.NewReader(benchBody))
					if err != nil {
						b.Fatalf("sweep: %v", err)
					}
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("sweep status %d", resp.StatusCode)
					}
					resp.Body.Close()
				}
				b.StopTimer()
				b.ReportMetric(float64(benchPoints*b.N)/b.Elapsed().Seconds(), "points/sec")
			})
		}
	}
}
