// Command checkresults validates -json results files: they must parse,
// carry a supported schema version, and contain self-consistent runs with
// no duplicate (scheme, bench, options) points — the invariant a fleet
// gather must preserve. Schema v3 multithreaded runs must additionally
// reconcile their per-context stats blocks against the machine totals
// (retired instructions and port-conflict stalls sum across threads,
// per-thread cache reads split into hits + misses). With
// -benches/-schemes it additionally pins the
// document to the requested matrix (full coverage, no extras), which CI
// runs against the cluster E2E artifact. It also guards archived results
// before analysis scripts consume them.
//
// Beyond results files it validates the two telemetry documents the
// daemon serves, so the CI smoke job can assert their shape from the
// shell: -prom checks a /metrics scrape for well-formed Prometheus text
// exposition (and optionally for required metric names), -flight checks
// a /debug/flight dump for a well-formed trace/event document (and
// optionally for a specific request ID with a required span path).
//
// -explore validates a design-space exploration document (a POST
// /v1/explore response): schema version, rung schedule consistency,
// per-point provenance, and a recomputed Pareto frontier that must match
// the document's — the acceptance check the explore smoke job runs.
//
// Usage:
//
//	checkresults out.json [more.json ...]
//	checkresults -benches gzip,mcf -schemes use-16x2-filtered,rf-3cyc merged.json
//	checkresults -prom metrics.txt -require serve_sweeps_accepted,runner_jobs_run
//	checkresults -flight flight.json -request-id r-1234 -spans sweep,admission,point,simulate
//	checkresults -explore explore.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"regcache/internal/explore"
	"regcache/internal/obs"
	"regcache/internal/sim"
)

func main() {
	var (
		prom      = flag.String("prom", "", "validate a Prometheus text-exposition file (a /metrics scrape)")
		require   = flag.String("require", "", "comma-separated metric names that must appear in the -prom file")
		flight    = flag.String("flight", "", "validate a flight-recorder dump (a /debug/flight response)")
		explFile  = flag.String("explore", "", "validate a design-space exploration document (a /v1/explore response)")
		requestID = flag.String("request-id", "", "require the -flight dump to contain a trace with this request ID")
		spans     = flag.String("spans", "", "comma-separated span names that must all appear in the matched trace")
		benches   = flag.String("benches", "", "comma-separated benchmarks the results file must cover (with -schemes: the full matrix, no extras)")
		schemeStr = flag.String("schemes", "", "comma-separated scheme names the results file must cover")
	)
	flag.Parse()

	if *prom != "" || *flight != "" || *explFile != "" {
		exit := 0
		if *prom != "" {
			if err := checkProm(*prom, splitList(*require)); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", *prom, err)
				exit = 1
			} else {
				fmt.Printf("%s: ok (prometheus exposition)\n", *prom)
			}
		}
		if *flight != "" {
			if err := checkFlight(*flight, *requestID, splitList(*spans)); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", *flight, err)
				exit = 1
			} else {
				fmt.Printf("%s: ok (flight dump)\n", *flight)
			}
		}
		if *explFile != "" {
			if err := checkExplore(*explFile); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", *explFile, err)
				exit = 1
			}
		}
		os.Exit(exit)
	}

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: checkresults <results.json> [...] | -prom FILE [-require a,b] | -flight FILE [-request-id ID -spans a,b]")
		os.Exit(2)
	}
	exit := 0
	for _, path := range flag.Args() {
		f, err := sim.ReadResults(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			exit = 1
			continue
		}
		if err := check(f); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			exit = 1
			continue
		}
		if err := checkMatrix(f, splitList(*benches), splitList(*schemeStr)); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			exit = 1
			continue
		}
		fmt.Printf("%s: ok (schema v%d, %s, %d runs)\n", path, f.SchemaVersion, f.Generator, len(f.Runs))
	}
	os.Exit(exit)
}

// check applies cross-field consistency rules a well-formed export obeys.
func check(f *sim.ResultsFile) error {
	if len(f.Runs) == 0 {
		return fmt.Errorf("no runs")
	}
	// No two runs may describe the same (scheme, bench, options) point —
	// the invariant a fleet gather must preserve (a hedge that raced its
	// primary must not leak both copies into the merged document).
	seen := make(map[string]int, len(f.Runs))
	for i, r := range f.Runs {
		id := sim.RunIdentity(r)
		if j, dup := seen[id]; dup {
			return fmt.Errorf("runs %d and %d: duplicate point %s/%s (same scheme, bench, and options)",
				j, i, r.Scheme.Name, r.Bench)
		}
		seen[id] = i
	}
	for i, r := range f.Runs {
		if r.Bench == "" || r.Scheme.Name == "" || r.Scheme.Kind == "" {
			return fmt.Errorf("run %d: missing identity fields (%+v)", i, r)
		}
		if r.Cycles == 0 || r.Retired == 0 || r.IPC <= 0 {
			return fmt.Errorf("run %d (%s/%s): empty performance fields", i, r.Scheme.Name, r.Bench)
		}
		if c := r.Cache; c != nil {
			if c.Hits+c.Misses != c.Reads {
				return fmt.Errorf("run %d (%s/%s): hits %d + misses %d != reads %d",
					i, r.Scheme.Name, r.Bench, c.Hits, c.Misses, c.Reads)
			}
			if c.MissFiltered+c.MissCapacity+c.MissConflict != c.Misses {
				return fmt.Errorf("run %d (%s/%s): miss split does not sum to %d misses",
					i, r.Scheme.Name, r.Bench, c.Misses)
			}
			if c.InitialWrites+c.Fills != c.Writes {
				return fmt.Errorf("run %d (%s/%s): initial %d + fills %d != writes %d",
					i, r.Scheme.Name, r.Bench, c.InitialWrites, c.Fills, c.Writes)
			}
		}
		// Schema v3: multithreaded runs carry a per-context stats block
		// that must reconcile with the machine totals; single-context
		// runs must not carry one (v1/v2 documents never do).
		if r.Threads < 0 || r.Threads == 1 {
			return fmt.Errorf("run %d (%s/%s): thread count %d (recorded only when > 1)",
				i, r.Scheme.Name, r.Bench, r.Threads)
		}
		if r.Threads > 1 {
			if len(r.ThreadStats) != r.Threads {
				return fmt.Errorf("run %d (%s/%s): %d thread-stat blocks for %d threads",
					i, r.Scheme.Name, r.Bench, len(r.ThreadStats), r.Threads)
			}
		} else if len(r.ThreadStats) > 0 {
			return fmt.Errorf("run %d (%s/%s): single-context run carries %d thread-stat blocks",
				i, r.Scheme.Name, r.Bench, len(r.ThreadStats))
		}
		var sumRetired, sumStalls uint64
		for k, ts := range r.ThreadStats {
			if ts.Thread != k {
				return fmt.Errorf("run %d (%s/%s): thread block %d labelled %d",
					i, r.Scheme.Name, r.Bench, k, ts.Thread)
			}
			if ts.CacheHits+ts.CacheMisses != ts.CacheReads {
				return fmt.Errorf("run %d (%s/%s) thread %d: hits %d + misses %d != reads %d",
					i, r.Scheme.Name, r.Bench, k, ts.CacheHits, ts.CacheMisses, ts.CacheReads)
			}
			sumRetired += ts.Retired
			sumStalls += ts.PortConflictStalls
		}
		if len(r.ThreadStats) > 0 {
			if sumRetired != r.Retired {
				return fmt.Errorf("run %d (%s/%s): per-thread retired sums to %d, machine retired %d",
					i, r.Scheme.Name, r.Bench, sumRetired, r.Retired)
			}
			if sumStalls != r.PortConflictStalls {
				return fmt.Errorf("run %d (%s/%s): per-thread port stalls sum to %d, machine total %d",
					i, r.Scheme.Name, r.Bench, sumStalls, r.PortConflictStalls)
			}
		}
		if t := r.Timing; t != nil {
			switch t.Outcome {
			case "simulated", "store", "coalesced":
			default:
				return fmt.Errorf("run %d (%s/%s): unknown timing outcome %q", i, r.Scheme.Name, r.Bench, t.Outcome)
			}
			if t.QueueWaitMS < 0 || t.StoreLookupMS < 0 || t.SimMS < 0 || t.StitchMS < 0 {
				return fmt.Errorf("run %d (%s/%s): negative timing field", i, r.Scheme.Name, r.Bench)
			}
		}
	}
	return nil
}

// checkMatrix verifies a gathered document sits exactly on the requested
// benches × schemes matrix: no run outside it, and — when both axes are
// given — every cell covered. This is the fleet-gather acceptance check:
// a merged multi-node document must be indistinguishable in coverage from
// a single node running the whole sweep. Either list may be empty to
// check only the other axis; -benches accepts "all".
func checkMatrix(f *sim.ResultsFile, benches, schemes []string) error {
	if len(benches) == 0 && len(schemes) == 0 {
		return nil
	}
	if len(benches) == 1 && benches[0] == "all" {
		benches = sim.Benchmarks()
	}
	wantB := make(map[string]bool, len(benches))
	for _, b := range benches {
		wantB[b] = true
	}
	wantS := make(map[string]bool, len(schemes))
	for _, s := range schemes {
		wantS[s] = true
	}
	type cell struct{ scheme, bench string }
	have := make(map[cell]bool, len(f.Runs))
	for i, r := range f.Runs {
		if len(benches) > 0 && !wantB[r.Bench] {
			return fmt.Errorf("run %d: bench %q outside the requested matrix", i, r.Bench)
		}
		if len(schemes) > 0 && !wantS[r.Scheme.Name] {
			return fmt.Errorf("run %d: scheme %q outside the requested matrix", i, r.Scheme.Name)
		}
		have[cell{r.Scheme.Name, r.Bench}] = true
	}
	if len(benches) > 0 && len(schemes) > 0 {
		for _, s := range schemes {
			for _, b := range benches {
				if !have[cell{s, b}] {
					return fmt.Errorf("matrix hole: no run for scheme %q bench %q", s, b)
				}
			}
		}
	}
	return nil
}

// checkProm validates a Prometheus text-exposition scrape: every
// non-comment line must be `name{labels} value` with a parseable float
// value, every sample's family must have been introduced by a # TYPE
// line, and every required name must appear as a family.
func checkProm(path string, required []string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	families := make(map[string]bool)
	samples := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "untyped", "summary":
				default:
					return fmt.Errorf("line %d: unknown TYPE %q", line, fields[3])
				}
				families[fields[2]] = true
			}
			continue
		}
		name, value, ok := splitSample(text)
		if !ok {
			return fmt.Errorf("line %d: malformed sample %q", line, text)
		}
		var v float64
		if _, err := fmt.Sscanf(value, "%g", &v); err != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
			return fmt.Errorf("line %d: unparseable value %q", line, value)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !families[name] && !families[base] {
			return fmt.Errorf("line %d: sample %q has no preceding # TYPE", line, name)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("no samples")
	}
	for _, want := range required {
		if !families[want] {
			return fmt.Errorf("required metric %q missing", want)
		}
	}
	return nil
}

// splitSample splits one exposition line into the metric name (with any
// label block stripped) and the value token.
func splitSample(text string) (name, value string, ok bool) {
	// name{labels} value  |  name value
	rest := text
	if i := strings.IndexByte(text, '{'); i >= 0 {
		j := strings.LastIndexByte(text, '}')
		if j < i {
			return "", "", false
		}
		name = text[:i]
		rest = strings.TrimSpace(text[j+1:])
	} else {
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return "", "", false
		}
		name = fields[0]
		rest = fields[1]
	}
	fields := strings.Fields(rest)
	if name == "" || len(fields) < 1 {
		return "", "", false
	}
	return name, fields[0], true
}

// checkFlight validates a flight dump and, when requestID is given,
// requires a trace tagged with it whose tree contains every span name in
// spans.
func checkFlight(path, requestID string, spans []string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var d obs.FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("parse flight dump: %w", err)
	}
	if uint64(len(d.Traces)) > d.TracesSeen || uint64(len(d.Events)) > d.EventsSeen {
		return fmt.Errorf("retained more than seen (%d/%d traces, %d/%d events)",
			len(d.Traces), d.TracesSeen, len(d.Events), d.EventsSeen)
	}
	for i, t := range d.Traces {
		if t.TraceID == "" || t.Root.Name == "" {
			return fmt.Errorf("trace %d: missing trace ID or root name", i)
		}
	}
	if requestID == "" {
		return nil
	}
	for _, t := range d.Traces {
		if t.RequestID != requestID {
			continue
		}
		for _, name := range spans {
			if t.Root.Find(name) == nil {
				return fmt.Errorf("trace %s: span %q missing from tree", requestID, name)
			}
		}
		return nil
	}
	return fmt.Errorf("no trace with request ID %q (have %d traces)", requestID, len(d.Traces))
}

// checkExplore validates an exploration document end to end via the
// engine's own validator: schema and identity fields, rung schedule
// consistency, per-point elimination/domination provenance, and a
// recomputed Pareto frontier that must match the document's.
func checkExplore(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var res explore.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("parse exploration document: %w", err)
	}
	if err := explore.ValidateResult(&res); err != nil {
		return err
	}
	fmt.Printf("%s: ok (explore schema v%d, %s, %s, %d candidates, %d rungs, frontier %d)\n",
		path, res.SchemaVersion, res.Generator, res.Strategy, len(res.Points), len(res.Rungs), len(res.Frontier))
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
