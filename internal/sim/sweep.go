package sim

// This file is the one wire contract for a sweep: the POST /v1/sweep body,
// its conversion to and from Options, and the resolve step that turns it
// into a runnable Sweep. The daemon, the fleet's sub-sweeps and regsimc
// all use it, so every path validates and encodes a point the same way.

import (
	"errors"
	"fmt"
	"slices"

	"regcache/internal/prog"
)

// SweepRequest is the POST /v1/sweep body. Schemes may be given as
// compact specs (ParseSchemeSpec grammar) and/or as full-fidelity
// SchemeRecord objects copied from a results file.
type SweepRequest struct {
	Benches       []string       `json:"benches"`                  // benchmark names, or ["all"]
	Schemes       []string       `json:"schemes,omitempty"`        // compact specs, e.g. "use:64x2:filtered"
	SchemeRecords []SchemeRecord `json:"scheme_records,omitempty"` // full-fidelity configurations
	Insts         uint64         `json:"insts,omitempty"`          // per-benchmark budget; 0 = DefaultInsts
	Intervals     int            `json:"intervals,omitempty"`      // checkpointed intervals per run; 0/1 = serial semantics
	WarmupInsts   uint64         `json:"warmup_insts,omitempty"`   // per-interval warm-up; 0 = default when intervals > 1
	Threads       int            `json:"threads,omitempty"`        // workload contexts per run; 0/1 = single-context
	Interleave    int            `json:"interleave,omitempty"`     // fetch-interleave granularity; 0 = default
	Async         bool           `json:"async,omitempty"`          // force job-ID response
	DeadlineMS    int64          `json:"deadline_ms,omitempty"`    // per-request deadline

	// Timings attaches a per-point latency breakdown (schema v2 timing
	// block) to each run. Off by default: timing varies run to run, and
	// the default response body must stay a pure function of the request
	// (coalesced identical sweeps return byte-identical documents).
	Timings bool `json:"timings,omitempty"`
}

// Options returns the run options the request carries.
func (r *SweepRequest) Options() Options {
	return Options{
		Insts:       r.Insts,
		Intervals:   r.Intervals,
		WarmupInsts: r.WarmupInsts,
		Threads:     r.Threads,
		Interleave:  r.Interleave,
	}
}

// SetOptions writes o into the request's option fields, the inverse of
// Options. Lifetime and live-count tracking have no wire form.
func (r *SweepRequest) SetOptions(o Options) {
	r.Insts, r.Intervals, r.WarmupInsts = o.Insts, o.Intervals, o.WarmupInsts
	r.Threads, r.Interleave = o.Threads, o.Interleave
}

// Sweep is a resolved sweep: runnable schemes crossed with benchmarks
// under validated options, expanded scheme-outer × bench-inner.
type Sweep struct {
	Schemes []Scheme
	Benches []string
	Opts    Options
	Timings bool // attach per-point timing blocks
}

// Points returns the sweep's point count.
func (s Sweep) Points() int { return len(s.Schemes) * len(s.Benches) }

// Resolve is the one resolve step for a sweep request: specs and records
// become schemes, ["all"] becomes the full suite, and every scheme passes
// ValidatePoint under the request's options. A results document holds one
// run per (scheme name, benchmark) point, so a scheme repeated by name or
// a repeated benchmark is refused. Errors name the JSON field, scheme or
// benchmark at fault.
func (r *SweepRequest) Resolve() (Sweep, error) {
	sw := Sweep{Opts: r.Options(), Timings: r.Timings}
	for _, spec := range r.Schemes {
		sc, err := ParseSchemeSpec(spec)
		if err != nil {
			return Sweep{}, err
		}
		sw.Schemes = append(sw.Schemes, sc)
	}
	for _, rec := range r.SchemeRecords {
		sc, err := rec.ToScheme()
		if err != nil {
			return Sweep{}, err
		}
		sw.Schemes = append(sw.Schemes, sc)
	}
	if len(sw.Schemes) == 0 {
		return Sweep{}, errors.New("sim: sweep needs at least one scheme (schemes or scheme_records)")
	}
	seen := make(map[string]bool, len(sw.Schemes))
	for _, sc := range sw.Schemes {
		if seen[sc.Name] {
			return Sweep{}, fmt.Errorf("sim: schemes repeat scheme %q", sc.Name)
		}
		seen[sc.Name] = true
		if err := ValidatePoint(sc, sw.Opts); err != nil {
			return Sweep{}, err
		}
	}
	benches, err := ResolveBenches(r.Benches)
	sw.Benches = benches
	return sw, err
}

// ResolveBenches validates a benchmark list against the built-in suite,
// expanding the ["all"] shorthand. A repeated benchmark is refused: it
// would repeat every point it appears in.
func ResolveBenches(names []string) ([]string, error) {
	if len(names) == 1 && names[0] == "all" {
		return Benchmarks(), nil
	}
	if len(names) == 0 {
		return nil, errors.New("sim: request needs at least one benchmark")
	}
	for i, b := range names {
		if _, ok := prog.ProfileByName(b); !ok {
			return nil, fmt.Errorf("sim: unknown benchmark %q", b)
		}
		if slices.Contains(names[:i], b) {
			return nil, fmt.Errorf("sim: benches repeat benchmark %q", b)
		}
	}
	return names, nil
}
