package main

// The traced run's report: per-layer metrics from the spans, the span
// file, and the per-layer table.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"regcache/internal/sim"
)

// probeSchemes are the pipeline build probe's scheme per family.
var probeSchemes = map[string]string{
	"mono":     "mono:3",
	"use":      "use:64x2:filtered",
	"lru":      "lru:64x2:rr",
	"nb":       "nb:64x2:rr",
	"port":     "port:64x2:filtered:p2",
	"twolevel": "twolevel:96",
	"oracle":   "use:64x2:filtered:oracle",
}

// requestParts is one traced request split into its layers.
type requestParts struct {
	Request  string  `json:"request"`
	Index    int     `json:"index"`
	ClientMS float64 `json:"client_ms"` // send until the full body arrived
	WallMS   float64 `json:"wall_ms"`   // first handler start to last handler end
	RunnerMS float64 `json:"runner_union_ms"`
	ServeMS  float64 `json:"serve_self_ms"`
	// OutsideMS is point-call time outside the request's wall window; a
	// correct attribution leaves it at zero.
	OutsideMS float64 `json:"outside_ms"`
	Bytes     int     `json:"response_bytes"`
	Points    int     `json:"point_calls"`
}

// spanFile is the traced run's span dump.
type spanFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Requests []requestParts     `json:"requests"`
	HTTP     []httpSpan         `json:"http"`
	Points   []pointSpan        `json:"points"`
	Setup    []setupSpan        `json:"setup"`
	Layers   map[string]metric  `json:"per_layer"`
	Overhead map[string]float64 `json:"tracing_overhead"`
}

// logicalID maps an HTTP exchange's request ID to its logical request:
// explorations tag their polls and the results fetch with suffixes.
func logicalID(id string) string {
	if i := strings.IndexByte(id, '.'); i >= 0 {
		return id[:i]
	}
	return id
}

// perLayer computes the per-layer metrics from the traced replay's spans
// and counters; untraced is the untraced phase over the same requests.
func (b *bench) perLayer(untraced, replay []sample, ph phase) (map[string]metric, error) {
	tr := b.tr
	counts, m0, m1 := ph.counts, &ph.m0, &ph.m1
	builds, err := b.buildProbe()
	if err != nil {
		return nil, err
	}
	httpBy := make(map[string][]httpSpan)
	for _, h := range tr.http {
		id := logicalID(h.Request)
		httpBy[id] = append(httpBy[id], h)
	}
	pointsBy := make(map[string][]pointSpan)
	for _, p := range tr.points {
		pointsBy[p.Request] = append(pointsBy[p.Request], p)
	}

	var (
		parts                       []requestParts
		serveSelf, kb, exploreSelf  []float64
		rungs                       = make([][]float64, len(b.plan))
		windowMS, busyMS            float64
		cycles, retired, portStalls uint64
		simMS, simCycles            = 0.0, 0.0
		famMS                       = make(map[string]float64)
		famCycles                   = make(map[string]float64)
		queue, lookup, runnerSelf   []float64
		pointsServed                int
		maxOutside                  float64
	)
	for _, s := range replay {
		pointsServed += s.req.points
		windowMS += s.latency
		hs, ps := httpBy[s.req.id], pointsBy[s.req.id]
		if len(hs) == 0 {
			return nil, fmt.Errorf("traced request %s has no handler span", s.req.id)
		}
		lo, hi := hs[0].Start, hs[0].End
		bytes := 0
		for _, h := range hs {
			lo, hi = min(lo, h.Start), max(hi, h.End)
			bytes += h.Bytes
		}
		iv := make([]span, len(ps))
		for i, p := range ps {
			iv[i] = span{p.Start, p.End}
		}
		inside := unionLength(clip(iv, lo, hi))
		rp := requestParts{
			Request: s.req.id, Index: s.index, ClientMS: s.latency,
			WallMS: hi - lo, RunnerMS: inside, ServeMS: hi - lo - inside,
			OutsideMS: unionLength(iv) - inside, Bytes: bytes, Points: len(ps),
		}
		parts = append(parts, rp)
		maxOutside = max(maxOutside, rp.OutsideMS)
		serveSelf = append(serveSelf, rp.ServeMS)
		kb = append(kb, float64(bytes)/1024)

		for _, p := range ps {
			runnerSelf = append(runnerSelf, p.SelfMS)
			if p.Outcome != "coalesced" {
				queue = append(queue, p.QueueMS)
				lookup = append(lookup, p.LookupMS)
				busyMS += p.LookupMS + p.SimMS
			}
			if p.Outcome == "simulated" {
				simMS += p.SimMS
				simCycles += float64(p.Cycles)
				famMS[p.Family] += p.SimMS
				famCycles[p.Family] += float64(p.Cycles)
			}
			if s.index < b.prof.exactPrefix {
				cycles += p.Cycles
				retired += p.Retired
				portStalls += p.PortStalls
			}
		}
		if s.req.path == "/v1/explore" && len(ps) > 0 {
			first, last := ps[0].Start, ps[0].End
			for _, p := range ps {
				first, last = min(first, p.Start), max(last, p.End)
			}
			exploreSelf = append(exploreSelf, last-first-unionLength(iv))
			for r, rung := range b.plan {
				rlo, rhi, n := 0.0, 0.0, 0
				for _, p := range ps {
					if p.Insts != rung.Insts {
						continue
					}
					if n == 0 || p.Start < rlo {
						rlo = p.Start
					}
					if n == 0 || p.End > rhi {
						rhi = p.End
					}
					n++
				}
				if n > 0 {
					rungs[r] = append(rungs[r], rhi-rlo)
				}
			}
		}
	}

	var programMS, oracleMS, openMS []float64
	for _, c := range b.setupRep {
		programMS = append(programMS, c.programMS)
		oracleMS = append(oracleMS, c.oracleMS)
		openMS = append(openMS, c.openMS)
	}
	ws := b.st.wc.Stats()
	untracedMS := 0.0
	for _, s := range untraced {
		untracedMS += s.latency
	}
	workers := float64(runtime.NumCPU())
	lookups := counts.JobsRun + counts.CacheHits + counts.StoreHits

	m := map[string]metric{
		"serve.self_ms_p50":          {median(serveSelf), "ms"},
		"serve.response_kb":          {median(kb), "KB"},
		"runner.queue_wait_ms_p50":   {median(queue), "ms"},
		"runner.self_ms_p50":         {median(runnerSelf), "ms"},
		"runner.busy_frac":           {ratio(busyMS, workers*windowMS), "ratio"},
		"runner.simulated":           {float64(counts.JobsRun), "count"},
		"runner.memo_hits":           {float64(counts.CacheHits), "count"},
		"runner.store_hits":          {float64(counts.StoreHits), "count"},
		"runner.memo_hit_frac":       {ratio(float64(counts.CacheHits), float64(lookups)), "ratio"},
		"store.lookup_ms_p50":        {median(lookup), "ms"},
		"store.open_ms":              {median(openMS), "ms"},
		"store.writes":               {float64(counts.StoreWrites), "count"},
		"store.write_errors":         {float64(counts.StoreErrors), "count"},
		"pipeline.ns_per_cycle":      {ratio(simMS*1e6, simCycles), "ns"},
		"pipeline.cycles":            {float64(cycles), "count"},
		"pipeline.retired":           {float64(retired), "count"},
		"pipeline.port_stalls":       {float64(portStalls), "count"},
		"explore.self_ms_p50":        {median(exploreSelf), "ms"},
		"workload.program_ms":        {median(programMS), "ms"},
		"workload.oracle_ms":         {median(oracleMS), "ms"},
		"workload.builds":            {float64(ws.ProgramBuilds + ws.OracleBuilds), "count"},
		"runtime.alloc_mb_per_point": {ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), float64(pointsServed)), "MB"},
		"runtime.gc_cycles":          {float64(m1.NumGC - m0.NumGC), "count"},
		"runtime.gc_pause_ms":        {float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"},
		"trace.overhead_pct":         {100 * (ratio(windowMS, untracedMS) - 1), "%"},
	}
	for _, f := range families {
		m["pipeline.ns_per_cycle."+f] = metric{ratio(famMS[f]*1e6, famCycles[f]), "ns"}
		m["pipeline.build_ms."+f] = metric{builds[f], "ms"}
	}
	for r := 0; r < 4; r++ {
		v := 0.0
		if r < len(rungs) {
			v = median(rungs[r])
		}
		m[fmt.Sprintf("explore.rung_ms.r%d", r)] = metric{v, "ms"}
	}

	fmt.Printf("traced replay: %d requests; parts: wall = serve self + runner union by construction; max point time outside its request %.3f ms\n",
		len(parts), maxOutside)
	fmt.Printf("tracing overhead: %.1f ms traced vs %.1f ms untraced for the same requests (%+.2f%%)\n",
		windowMS, untracedMS, m["trace.overhead_pct"].Value)
	b.printTable(m, len(parts), len(queue), len(runnerSelf))
	overhead := map[string]float64{
		"traced_ms":    windowMS,
		"untraced_ms":  untracedMS,
		"overhead_pct": m["trace.overhead_pct"].Value,
	}
	path := filepath.Join(b.workdir, fmt.Sprintf("spans-%s-seed%d.json", b.name, b.seed))
	if err := writeJSON(path, spanFile{
		Workload: b.name, Seed: b.seed, Requests: parts,
		HTTP: tr.http, Points: tr.points, Setup: tr.setup,
		Layers: m, Overhead: overhead,
	}); err != nil {
		return nil, err
	}
	fmt.Printf("span file: %s\n", path)
	return m, nil
}

// buildProbe times sim.RunPipeline (pipeline construction, no
// simulation) per scheme family at the workload's thread count: one
// untimed call warms the shared workload cache, then the median of five.
func (b *bench) buildProbe() (map[string]float64, error) {
	out := make(map[string]float64, len(families))
	opts := sim.Options{Threads: b.prof.probeThreads}
	for _, f := range families {
		sc, err := sim.ParseSchemeSpec(probeSchemes[f])
		if err != nil {
			return nil, err
		}
		var ms []float64
		for i := 0; i < 6; i++ {
			end := b.tr.setupSpan("sim.RunPipeline")
			t0 := time.Now()
			_, err := sim.RunPipeline("gzip", sc, opts)
			el := msSince(t0)
			end()
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", probeSchemes[f], err)
			}
			if i > 0 {
				ms = append(ms, el)
			}
		}
		out[f] = median(ms)
	}
	return out, nil
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (b *bench) printTable(m map[string]metric, requests, fresh, calls int) {
	fmt.Printf("per-layer (%s, seed %d; %d traced requests, %d fresh point calls of %d):\n",
		b.name, b.seed, requests, fresh, calls)
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
