// Command perfbench is the repository benchmark. Each invocation runs one
// workload in its own process against an in-process regsimd stack
// (serve.Server over sim.Runner with a durable result store in a fresh
// directory), driven by one closed-loop client over a single keep-alive
// connection, and prints one JSON line of metrics last:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 follows the same
// untraced phase with a traced replay of the very same requests on a
// fresh daemon and store, and reports the per-layer metrics from the
// replay's spans instead, plus a span file, a per-layer table and the
// tracing overhead (replay time over untraced time of identical work).
// README.md in this directory describes the workloads and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"regcache/internal/explore"
	"regcache/internal/serve"
	"regcache/internal/sim"
)

// defaultSeed is the seed a run uses without --seed. README.md names the
// held-out seed reserved for confirming claims.
const defaultSeed = 1

// maxReplay bounds the traced replay: enough requests for every
// per-layer median (on sweep-warm, 19,200 point spans), few enough to
// keep the span file small.
const maxReplay = 400

// profile is a workload's fixed shape.
type profile struct {
	// stratum is how many consecutive requests make up one unit of the
	// workload's mix (a perfect matching of the suite, a pass over the
	// stored sweeps, an exploration round). Runs end on a stratum
	// boundary, and throughput is the median over strata.
	stratum int
	// minRequests is a floor on measured requests, a multiple of
	// stratum: the run continues past --seconds until it holds this many.
	minRequests int
	// exactPrefix is how many leading requests the output digest and the
	// exact simulator counts cover, so they compare across commits.
	exactPrefix int
	// tailPct is the percentile latency_tail_ms reports, one that every
	// run has at least ten requests beyond (p90 of ≥ 200, p75 of ≥ 42);
	// the median where runs are too short for any.
	tailPct float64
	// setups is how many fresh set-ups a run times for setup_s.
	setups int
	// probeThreads is the thread count of the pipeline build probe.
	probeThreads int
}

var profiles = map[string]profile{
	"sweep-cold": {stratum: 6, minRequests: 42, exactPrefix: 24, tailPct: 75, setups: 5, probeThreads: 1},
	"sweep-warm": {stratum: warmStored, minRequests: 200, exactPrefix: 16, tailPct: 90, setups: 25, probeThreads: 1},
	"explore-mt": {stratum: exploreRound, minRequests: 2 * exploreRound, exactPrefix: 4, tailPct: 50, setups: 9, probeThreads: 4},
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: sweep-cold, sweep-warm or explore-mt")
		seed     = flag.Int64("seed", defaultSeed, "seed every request is generated from")
		seconds  = flag.Int("seconds", 25, "measured time per run")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		workdir  = flag.String("workdir", ".bench_build/perfbench", "directory for temporary stores and span files")
	)
	flag.Parse()
	prof, ok := profiles[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep-cold|sweep-warm|explore-mt --seed N --seconds S --trace 0|1")
		return 2
	}
	fmt.Printf("machine: nproc=%d gomaxprocs=%d cpu=%q go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	b := &bench{
		name:    *workload,
		prof:    prof,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		workdir: *workdir,
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	out, err := b.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one measured request as the client saw it.
type sample struct {
	req     *request
	index   int
	latency float64 // ms, send until the full result body arrived
	err     error
	sum     [32]byte
	body    []byte // kept for the output checks where bodies are small
}

// stack is one set-up: the workload cache, the store and the daemon.
type stack struct {
	wc    *sim.WorkloadCache
	rs    *sim.ResultStore
	dir   string
	fresh bool // dir was created for this set-up
	d     *daemon
}

// generation is the runner counters of one daemon generation a phase
// used: when the phase began (zero for generations started inside it)
// and after its drain.
type generation struct {
	before, after sim.RunnerStats
}

type bench struct {
	name    string
	prof    profile
	seed    int64
	seconds time.Duration
	workdir string
	tr      *tracer

	tmp      string
	tp       *transport
	reqs     []request
	stored   []request  // sweep-warm: the stored sweeps
	fillSums [][32]byte // sweep-warm: SHA-256 of each stored sweep's fill body
	fillDocs [][]byte   // sweep-warm: the fill bodies
	plan     []explore.RungRecord

	st        *stack
	cur       *daemon // the generation serving requests
	curBefore sim.RunnerStats
	gens      []generation
	stores    []*sim.ResultStore // open stores: the set-up's and fresh generations'

	setupMS  []float64
	setupRep []setupCost
}

// setupCost is what one set-up spent where.
type setupCost struct {
	programMS, oracleMS, openMS float64
}

func (b *bench) run() (*result, error) {
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(b.workdir, "run-")
	if err != nil {
		return nil, err
	}
	b.tmp = tmp
	defer os.RemoveAll(tmp)
	if err := b.generate(); err != nil {
		return nil, err
	}
	if b.tp, err = newTransport(); err != nil {
		return nil, err
	}
	out, err := b.measure()
	// Stop whatever is still serving (draining twice is a no-op), then
	// the transport and the stores.
	if b.cur != nil {
		err = errors.Join(err, b.cur.drain())
	}
	if b.st != nil {
		err = errors.Join(err, b.st.d.drain())
	}
	err = errors.Join(err, b.tp.close(), b.closeStores())
	if err != nil {
		return nil, err
	}
	return out, nil
}

// generate derives every request of the run from the seed.
func (b *bench) generate() error {
	var err error
	switch b.name {
	case "sweep-cold":
		b.reqs = sweepColdRequests(b.seed)
	case "sweep-warm":
		b.stored = storedSweeps(b.seed)
		b.reqs = sweepWarmRequests(b.seed, b.stored, 5000) // far more passes than a run makes
	case "explore-mt":
		if b.plan, err = explorePlan(exploreSpec()); err != nil {
			return err
		}
		b.reqs, err = exploreRequests(b.seed, 10*exploreRound) // far more rounds than a run makes
	}
	return err
}

func (b *bench) measure() (*result, error) {
	storeDir := ""
	if b.name == "sweep-warm" {
		storeDir = filepath.Join(b.tmp, "filled")
		if err := b.fill(storeDir); err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
	}
	if err := b.setup(storeDir); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b.tp.use(b.st.d)
	var buf bytes.Buffer
	warm := warmupRequest()
	if b.name == "sweep-warm" {
		warm = b.stored[0]
		warm.id = "warmup"
	}
	if err := b.send(&warm, &buf); err != nil {
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	if b.name == "sweep-warm" {
		// The warm-up memoized a stored sweep; the passes start on fresh
		// generations.
		if err := b.st.d.drain(); err != nil {
			return nil, fmt.Errorf("drain: %w", err)
		}
	} else {
		b.cur, b.curBefore = b.st.d, b.st.d.runner.Stats()
	}

	runtime.GC()
	debug.FreeOSMemory()
	hwmReset := resetPeakRSS() == nil
	samples, err := b.loop(0)
	peakKB, rssErr := peakRSSKB()
	if err == nil {
		err = b.retire()
	}
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if !hwmReset {
		fmt.Println("note: peak RSS covers the whole process (the high-water mark could not be reset)")
	}
	var replay []sample
	var ph phase
	if b.tr != nil {
		if replay, ph, err = b.tracedReplay(min(len(samples), maxReplay)); err != nil {
			return nil, err
		}
	}

	var problems []string
	for _, g := range b.gens {
		if st := g.after; st.StoreWrites != st.JobsRun || st.StoreErrors != 0 || st.Errors != 0 {
			problems = append(problems, fmt.Sprintf("after drain: %d store writes for %d simulated points, %d write errors, %d job errors",
				st.StoreWrites, st.JobsRun, st.StoreErrors, st.Errors))
		}
	}
	if b.name == "sweep-warm" {
		if n := b.runnerCounts(b.gens).JobsRun; n != 0 {
			problems = append(problems, fmt.Sprintf("sweep-warm simulated %d points; every point must be a store hit", n))
		}
	}
	failed := b.check(samples)
	for i, s := range replay {
		// Tracing must not change a single result byte.
		if err := s.err; err != nil || s.sum != samples[i].sum {
			failed++
			fmt.Fprintf(os.Stderr, "traced replay of %s failed or differs: %v\n", s.req.id, err)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	b.printDigest(samples)

	out := &result{
		Correct:   failed == 0 && len(problems) == 0,
		Attempted: len(samples) + len(replay),
		Failed:    failed,
	}
	if b.tr == nil {
		out.Metrics = b.endToEnd(samples, peakKB)
		return out, nil
	}
	layers, err := b.perLayer(samples[:len(replay)], replay, ph)
	if err != nil {
		return nil, err
	}
	out.Metrics = layers
	return out, nil
}

// phase is what the traced replay's process did besides the requests.
type phase struct {
	counts sim.RunnerStats // runner counters of the replay's generations
	m0, m1 runtime.MemStats
}

// tracedReplay sends the untraced phase's first n requests again, with
// span recording on, to a fresh daemon and store (sweep-warm: fresh
// generations over the same filled store), so the traced work is
// identical to the untraced work.
func (b *bench) tracedReplay(n int) ([]sample, phase, error) {
	var ph phase
	mark := len(b.gens)
	if b.name != "sweep-warm" {
		if err := b.freshStoreGeneration(); err != nil {
			return nil, ph, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ph.m0)
	b.tr.on.Store(true)
	replay, err := b.loop(n)
	b.tr.on.Store(false)
	runtime.ReadMemStats(&ph.m1)
	if err == nil {
		err = b.retire()
	}
	ph.counts = b.runnerCounts(b.gens[mark:])
	return replay, ph, err
}

// fill is sweep-warm's untimed data preparation: it simulates every
// stored sweep once through a daemon over a fresh store, keeps the
// bodies, and drains so every result is on disk.
func (b *bench) fill(dir string) error {
	rs, err := openStore(dir, nil)
	if err != nil {
		return err
	}
	d, err := newDaemon(sim.NewWorkloadCache(), rs, nil)
	if err != nil {
		return errors.Join(err, rs.Close())
	}
	b.tp.use(d)
	var buf bytes.Buffer
	for k := range b.stored {
		r := b.stored[k]
		r.id = fmt.Sprintf("fill-%d", k)
		if err := b.send(&r, &buf); err != nil {
			return errors.Join(fmt.Errorf("stored sweep %d: %w", k, err), d.drain(), rs.Close())
		}
		if err := checkSweep(&r, buf.Bytes()); err != nil {
			return errors.Join(fmt.Errorf("stored sweep %d: %w", k, err), d.drain(), rs.Close())
		}
		b.fillDocs = append(b.fillDocs, bytes.Clone(buf.Bytes()))
		b.fillSums = append(b.fillSums, sha256.Sum256(buf.Bytes()))
	}
	if err := d.drain(); err != nil {
		return errors.Join(err, rs.Close())
	}
	if st := d.runner.Stats(); st.StoreWrites != st.JobsRun || st.StoreErrors != 0 {
		return errors.Join(fmt.Errorf("fill wrote %d of %d results", st.StoreWrites, st.JobsRun), rs.Close())
	}
	return rs.Close()
}

// setup times prof.setups fresh set-ups and keeps the last one for the
// run: daemon build, store open (the filled store on sweep-warm) and
// warming the workload cache the run needs.
func (b *bench) setup(filled string) error {
	for i := 0; i < b.prof.setups; i++ {
		if b.st != nil {
			if err := b.teardown(b.st); err != nil {
				return err
			}
			b.st = nil
			runtime.GC()
		}
		start := time.Now()
		st, cost, err := b.setupOnce(filled)
		if err != nil {
			return err
		}
		b.setupMS = append(b.setupMS, float64(time.Since(start).Nanoseconds())/1e6)
		b.setupRep = append(b.setupRep, cost)
		b.st = st
	}
	b.stores = append(b.stores, b.st.rs)
	return nil
}

func (b *bench) setupOnce(filled string) (*stack, setupCost, error) {
	var cost setupCost
	st := &stack{wc: sim.NewWorkloadCache(), dir: filled}
	if st.dir == "" {
		dir, err := os.MkdirTemp(b.tmp, "store-")
		if err != nil {
			return nil, cost, err
		}
		st.dir, st.fresh = dir, true
	}
	t0 := time.Now()
	rs, err := openStore(st.dir, b.tr)
	if err != nil {
		return nil, cost, err
	}
	cost.openMS = msSince(t0)
	st.rs = rs
	if st.d, err = newDaemon(st.wc, rs, b.tr); err != nil {
		return nil, cost, errors.Join(err, rs.Close())
	}
	if err := b.warm(st.wc, &cost); err != nil {
		return nil, cost, errors.Join(err, b.teardown(st))
	}
	return st, cost, nil
}

// warm builds what the workload's simulations read from the workload
// cache: single-context programs and the :oracle schemes' 200k tables on
// sweep-cold, every context's program of the T=4 candidates on
// explore-mt (T=2 uses the first two), nothing on sweep-warm.
func (b *bench) warm(wc *sim.WorkloadCache, cost *setupCost) error {
	threads := map[string]int{"sweep-cold": 1, "explore-mt": 4}[b.name]
	if threads == 0 {
		return nil
	}
	t0 := time.Now()
	for _, bench := range sim.Benchmarks() {
		for tid := 0; tid < threads; tid++ {
			name := "WorkloadCache.Program"
			if tid > 0 {
				name = "WorkloadCache.ThreadProgram"
			}
			end := b.tr.setupSpan(name)
			_, err := wc.ThreadProgram(bench, tid)
			end()
			if err != nil {
				return err
			}
		}
	}
	cost.programMS = msSince(t0)
	if b.name != "sweep-cold" {
		return nil
	}
	t0 = time.Now()
	for _, bench := range sim.Benchmarks() {
		end := b.tr.setupSpan("WorkloadCache.Oracle")
		_, err := wc.Oracle(bench, sim.DefaultInsts)
		end()
		if err != nil {
			return err
		}
	}
	cost.oracleMS = msSince(t0)
	return nil
}

// teardown drains and closes a set-up that the run does not use.
func (b *bench) teardown(st *stack) error {
	err := errors.Join(st.d.drain(), st.rs.Close())
	if st.fresh {
		err = errors.Join(err, os.RemoveAll(st.dir))
	}
	return err
}

// closeStores closes every store still open.
func (b *bench) closeStores() error {
	var err error
	for _, rs := range b.stores {
		err = errors.Join(err, rs.Close())
	}
	b.stores = nil
	return err
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// newGeneration retires the serving generation, starts a fresh daemon
// over rs and routes requests to it.
func (b *bench) newGeneration(rs *sim.ResultStore) error {
	if err := b.retire(); err != nil {
		return err
	}
	d, err := newDaemon(b.st.wc, rs, b.tr)
	if err != nil {
		return err
	}
	b.cur, b.curBefore = d, sim.RunnerStats{}
	b.tp.use(d)
	return nil
}

// retire drains the serving generation, which flushes its store appends,
// and keeps its counters.
func (b *bench) retire() error {
	if b.cur == nil {
		return nil
	}
	if err := b.cur.drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	b.gens = append(b.gens, generation{before: b.curBefore, after: b.cur.runner.Stats()})
	b.cur = nil
	return nil
}

// freshStoreGeneration starts a daemon generation over a new, empty
// store.
func (b *bench) freshStoreGeneration() error {
	dir, err := os.MkdirTemp(b.tmp, "store-")
	if err != nil {
		return err
	}
	rs, err := openStore(dir, nil)
	if err != nil {
		return err
	}
	b.stores = append(b.stores, rs)
	return b.newGeneration(rs)
}

// beforeRequest starts the daemon generation request i needs: sweep-warm
// replays each pass on a fresh generation (empty memo) over the filled
// store; explore-mt starts each chain on a fresh daemon and store.
func (b *bench) beforeRequest(i int) error {
	switch {
	case b.name == "sweep-warm" && i%len(b.stored) == 0:
		return b.newGeneration(b.st.rs)
	case b.name == "explore-mt" && i > 0 && i%exploreRound == 0:
		return b.freshStoreGeneration()
	}
	return nil
}

// loop is a closed loop over the generated requests. With n == 0 it is
// the measured phase: it runs until --seconds have passed, at least
// minRequests were sent and the last stratum is complete. Otherwise it
// sends exactly the first n requests.
func (b *bench) loop(n int) ([]sample, error) {
	keep := b.name != "sweep-warm"
	start := time.Now()
	var samples []sample
	var buf bytes.Buffer
	for i := range b.reqs {
		if n > 0 && i == n {
			break
		}
		if n == 0 && i%b.prof.stratum == 0 && i >= b.prof.minRequests && time.Since(start) >= b.seconds {
			break
		}
		if err := b.beforeRequest(i); err != nil {
			return nil, err
		}
		r := &b.reqs[i]
		s := sample{req: r, index: i}
		t0 := time.Now()
		s.err = b.send(r, &buf)
		s.latency = msSince(t0)
		s.sum = sha256.Sum256(buf.Bytes())
		if keep {
			s.body = bytes.Clone(buf.Bytes())
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// send performs one logical request and leaves its result body in buf.
// An exploration is accepted as an async job (it exceeds the daemon's
// synchronous bound), long-polled to completion and fetched, as
// regsimc explore does.
func (b *bench) send(r *request, buf *bytes.Buffer) error {
	status, err := b.tp.exchange(http.MethodPost, r.path, r.id, r.body, buf)
	if err != nil || r.path != "/v1/explore" || status == http.StatusOK {
		return err
	}
	var js serve.JobStatus
	if err := json.Unmarshal(buf.Bytes(), &js); err != nil {
		return fmt.Errorf("decode job status: %w", err)
	}
	for poll := 1; js.Status == "running"; poll++ {
		id := r.id + ".w" + strconv.Itoa(poll)
		if _, err := b.tp.exchange(http.MethodGet, "/v1/jobs/"+js.ID+"?wait=30s", id, nil, buf); err != nil {
			return err
		}
		if err := json.Unmarshal(buf.Bytes(), &js); err != nil {
			return fmt.Errorf("decode job status: %w", err)
		}
	}
	if js.Status != "done" {
		return fmt.Errorf("job %s %s: %s", js.ID, js.Status, js.Error)
	}
	_, err = b.tp.exchange(http.MethodGet, "/v1/jobs/"+js.ID+"/results", r.id+".r", nil, buf)
	return err
}

// runnerCounts sums the runner counters of a phase over its daemon
// generations.
func (b *bench) runnerCounts(gens []generation) sim.RunnerStats {
	var sum sim.RunnerStats
	for _, g := range gens {
		d := g.after.Sub(g.before)
		sum.JobsRun += d.JobsRun
		sum.CacheHits += d.CacheHits
		sum.StoreHits += d.StoreHits
		sum.StoreWrites += g.after.StoreWrites
		sum.StoreErrors += g.after.StoreErrors
	}
	return sum
}

// printDigest prints a SHA-256 over the simulated outputs the run is
// sure to produce on any commit: the first exactPrefix result bodies
// (the fill bodies on sweep-warm), so a simulator-only change can show
// identical results.
func (b *bench) printDigest(samples []sample) {
	h := sha256.New()
	n := 0
	if b.name == "sweep-warm" {
		for k, doc := range b.fillDocs {
			fmt.Fprintf(h, "%d\n", k)
			h.Write(doc)
			n++
		}
	} else {
		for _, s := range samples {
			if s.index >= b.prof.exactPrefix {
				break
			}
			fmt.Fprintf(h, "%s\n", s.req.id)
			h.Write(s.body)
			n++
		}
	}
	fmt.Printf("digest: workload=%s seed=%d bodies=%d sha256=%s\n", b.name, b.seed, n, hex.EncodeToString(h.Sum(nil)))
}

// endToEnd computes the untraced run's metrics. Throughput is measured
// per stratum (its requests' budget or points over their summed request
// time) and reported as the median over the run's strata, so a burst of
// interference from outside the process moves one stratum, not the run.
func (b *bench) endToEnd(samples []sample, peakKB int64) map[string]metric {
	var lat, instRate, pointRate []float64
	var wallMS, insts, points float64
	for i, s := range samples {
		lat = append(lat, s.latency)
		wallMS += s.latency
		insts += float64(s.req.insts)
		points += float64(s.req.points)
		if (i+1)%b.prof.stratum == 0 {
			instRate = append(instRate, insts/(wallMS/1e3))
			pointRate = append(pointRate, points/(wallMS/1e3))
			wallMS, insts, points = 0, 0, 0
		}
	}
	tail := median(lat)
	if b.prof.tailPct != 50 {
		tail, _ = tailPercentile(lat, b.prof.tailPct) // minRequests guarantees the sample
	}
	fmt.Printf("requests: %d measured in %d strata, tail percentile p%.0f\n", len(samples), len(instRate), b.prof.tailPct)
	fmt.Printf("strata: sim_insts_per_s %.0f\n", instRate)
	return map[string]metric{
		"latency_p50_ms":  {median(lat), "ms"},
		"latency_tail_ms": {tail, "ms"},
		"sim_insts_per_s": {median(instRate), "1/s"},
		"points_per_s":    {median(pointRate), "1/s"},
		"setup_s":         {median(b.setupMS) / 1e3, "s"},
		"peak_rss_mb":     {float64(peakKB) / 1024, "MB"},
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
