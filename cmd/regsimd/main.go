// Command regsimd is the long-running simulation service: it accepts
// sweep jobs (scheme × benchmark matrices) over HTTP, shards their points
// across the shared sim.Runner worker pool, coalesces identical in-flight
// and memoized points through the run layer's single-flight cache, and
// returns schema-versioned results documents — synchronously for small
// sweeps, via polled job IDs for large ones.
//
// Operational behaviour: the admission queue is bounded (-queue points;
// excess load is shed with 429 + Retry-After, and a sweep too large to
// ever fit gets a permanent 413), settled async jobs are retained up to
// -max-jobs, every request carries a deadline propagated into the
// simulations, and SIGTERM/SIGINT triggers a graceful drain that finishes
// in-flight sweeps before closing the pool.
// Service metrics (queue depth, coalesce hit-rate, per-sweep latency) are
// served on the same listener at /debug/vars and as Prometheus text at
// /metrics, pprof at /debug/pprof/, and a flight recorder of recent
// request traces plus error/panic/shed events at /debug/flight. Every
// request carries an X-Request-Id (inbound ones are honoured) echoed on
// the response, stamped into every structured JSON log line on stderr,
// and attached to the request's trace.
//
// With -store DIR the daemon keeps a durable content-addressed result
// store under DIR: a worker appends each point it simulates before the
// point's result is returned, memo misses consult the store before
// simulating, and a restart on the same
// directory answers repeated sweeps from disk (warm start). The store's
// hit counters appear under serve.runner.store_* in /debug/vars.
//
// With -peers (plus -self, this node's URL as peers reach it) the daemon
// joins a fleet: a sweep received by any node is partitioned across the
// fleet by consistent-hashing each point's store fingerprint, so every
// node runs only the points it owns — whose results its durable store
// shard caches — and proxies the rest as leaf sub-sweeps, hedging
// straggler partitions to the next ring node. Peers resolve each other's
// cached points over GET /v1/store/{key} before re-simulating.
//
//	regsimd -addr :8081 -store /var/ra -self http://10.0.0.1:8081 \
//	        -peers http://10.0.0.2:8081,http://10.0.0.3:8081
//
// Examples:
//
//	regsimd -addr :8080
//	regsimd -addr :8080 -workers 8 -queue 2048 -sync-max 32
//
//	curl -s localhost:8080/v1/sweep -d '{"benches":["gzip","mcf"],"schemes":["use:64x2","mono:3"]}'
//	curl -s 'localhost:8080/v1/jobs/j-1?wait=5s'
//	curl -s localhost:8080/v1/jobs/j-1/results
//	curl -s localhost:8080/debug/vars | jq .regcache
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"regcache/cmd/internal/cli"
	"regcache/internal/obs"
	"regcache/internal/serve"
	"regcache/internal/sim"
	"regcache/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		workers      = flag.Int("workers", 0, "simulation worker pool size (0 = NumCPU)")
		queue        = flag.Int("queue", 4096, "admission bound in sweep points; excess load is shed with 429")
		syncMax      = flag.Int("sync-max", 64, "largest sweep (in points) answered synchronously; bigger sweeps get a job ID")
		maxJobs      = flag.Int("max-jobs", 1024, "settled async jobs retained for polling; the oldest are evicted beyond this")
		timeout      = flag.Duration("timeout", 60*time.Second, "default per-request deadline")
		maxTimeout   = flag.Duration("max-timeout", 10*time.Minute, "cap on client-chosen deadlines")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long SIGTERM waits for in-flight sweeps")
		storeDir     = flag.String("store", "", "durable result store directory for warm restarts (created if missing)")
		storeMax     = flag.Int64("store-max-bytes", 0, "size cap on live store data; 0 = unbounded (GC evicts least-recently-re-hit entries)")
		logText      = flag.Bool("log-text", false, "log human-readable text instead of JSON")
		peers        = flag.String("peers", "", "comma-separated peer base URLs; enables the fleet plane (requires -self)")
		self         = flag.String("self", "", "this node's base URL as peers reach it, e.g. http://host:8080")
		hedgeAfter   = flag.Duration("hedge-after", 0, "fleet straggler-deadline fallback before latency data accrues (0 = 2s default)")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr)
	if *logText {
		logger = obs.NewTextLogger(os.Stderr)
	}
	obs.SetLogger(logger)
	if *workers < 0 || *queue < 1 || *syncMax < 1 || *maxJobs < 1 {
		fmt.Fprintln(os.Stderr, "invalid -workers/-queue/-sync-max/-max-jobs")
		flag.Usage()
		os.Exit(2)
	}
	peerList := cli.SplitList(*peers)
	if (len(peerList) > 0) != (*self != "") {
		fmt.Fprintln(os.Stderr, "-peers and -self must be set together")
		flag.Usage()
		os.Exit(2)
	}

	// With -store the durable result store is attached before the pool
	// starts: memo misses consult the store, completed points append to
	// it, and a restart on the same directory serves repeated sweeps
	// without re-simulating. The store outlives the runner: Drain closes
	// the backend (waiting for the in-flight appends), and only then is
	// the store itself closed.
	backend := sim.NewRunner(*workers)
	var rstore *sim.ResultStore
	if *storeDir != "" {
		rs, err := sim.OpenResultStore(*storeDir, store.Options{MaxBytes: *storeMax})
		if err != nil {
			fmt.Fprintf(os.Stderr, "regsimd: open store: %v\n", err)
			os.Exit(1)
		}
		rstore = rs
		if err := backend.UseStore(rs); err != nil {
			fmt.Fprintf(os.Stderr, "regsimd: attach store: %v\n", err)
			os.Exit(1)
		}
		logger.Info("result store opened", "dir", *storeDir, "entries", rs.Store().Len())
	}

	srv := serve.New(serve.Config{
		Backend:         backend,
		MaxQueuedPoints: *queue,
		MaxSyncPoints:   *syncMax,
		MaxJobs:         *maxJobs,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		Peers:           peerList,
		SelfURL:         *self,
		Store:           rstore,
		FleetHedgeAfter: *hedgeAfter,
	})
	srv.RegisterMetrics(obs.Default(), "serve")
	obs.Default().Publish("regcache")

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("regsimd listening", "addr", *addr, "workers", *workers,
		"endpoints", "/v1/sweep /metrics /debug/vars /debug/flight /debug/pprof/")

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		logger.Info("signal received, draining", "signal", sig.String(), "drain_timeout", drainTimeout.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "regsimd: %v\n", err)
			_ = httpSrv.Close()
			closeStore(rstore)
			os.Exit(1)
		}
		// Drain closed the backend, whose workers finished every in-flight
		// store append; closing the store now releases the writer lock
		// with all results durable.
		closeStore(rstore)
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "regsimd: shutdown: %v\n", err)
			os.Exit(1)
		}
		logger.Info("drained cleanly")
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "regsimd: %v\n", err)
		closeStore(rstore)
		os.Exit(1)
	}
}

func closeStore(rs *sim.ResultStore) {
	if rs == nil {
		return
	}
	if err := rs.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "regsimd: close store: %v\n", err)
	}
}
