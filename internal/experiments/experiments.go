// Package experiments defines one reproducible experiment per figure and
// table of the paper's evaluation (Section 5). Each experiment runs the
// relevant schemes over the benchmark suite and renders the same rows or
// series the paper reports, so the paper's claims can be checked against
// this implementation (EXPERIMENTS.md records the comparison).
package experiments

import (
	"fmt"
	"strings"

	"regcache/internal/sim"
)

// Options scales an experiment run.
type Options struct {
	Insts   uint64   // per-benchmark instruction budget (0 = sim.DefaultInsts)
	Benches []string // benchmark subset (nil = full suite)
}

func (o Options) withDefaults() Options {
	if o.Insts == 0 {
		o.Insts = sim.DefaultInsts
	}
	if len(o.Benches) == 0 {
		o.Benches = sim.Benchmarks()
	}
	return o
}

// Quick returns a fast configuration: four representative benchmarks at a
// reduced instruction budget.
func Quick() Options {
	return Options{Insts: 60_000, Benches: sim.QuickBenchmarks()}
}

// Report is the output of one experiment.
type Report struct {
	ID    string
	Title string
	Paper string // the paper's claim this experiment checks
	Body  []string
	Notes []string
}

// Section appends a block of preformatted text to the report.
func (r *Report) Section(s string) { r.Body = append(r.Body, s) }

// Sectionf appends a formatted line.
func (r *Report) Sectionf(format string, args ...interface{}) {
	r.Body = append(r.Body, fmt.Sprintf(format, args...))
}

// Note appends an observation comparing measured behaviour to the paper.
func (r *Report) Note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "Paper: %s\n", r.Paper)
	}
	for _, s := range r.Body {
		b.WriteString(s)
		if !strings.HasSuffix(s, "\n") {
			b.WriteString("\n")
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one registered experiment. Run simulates through the
// given runner, so experiments that share a runner share its memo: a
// baseline several figures normalize against simulates once.
type Experiment struct {
	ID    string
	Title string
	Run   func(*sim.Runner, Options) (*Report, error)
}

// All lists every experiment in paper order.
var All = []Experiment{
	{"fig1", "Register lifetime phases", Fig1},
	{"fig2", "Allocated vs live registers", Fig2},
	{"fig6", "Cache size and organization", Fig6},
	{"fig7", "Decoupled indexing algorithms", Fig7},
	{"fig8", "Register cache miss breakdown", Fig8},
	{"fig9", "Average access bandwidth", Fig9},
	{"fig10", "Filtering effects", Fig10},
	{"table2", "Register cache metrics", Table2},
	{"fig11", "Performance versus cache/L1 size", Fig11},
	{"fig12", "Performance versus backing file latency", Fig12},
	{"sec3", "Use-based management vital statistics", Sec3},
	{"sec52", "Register cache miss model cost", Sec52},
	{"sec53", "Design-point ablations", Sec53},
	{"oracle", "Perfect-use-knowledge spectrum (extension)", Oracle},
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids in order.
func IDs() []string {
	out := make([]string, len(All))
	for i, e := range All {
		out[i] = e.ID
	}
	return out
}

// prefetch submits every scheme×benchmark simulation of an experiment to
// the runner's memoizing worker pool before the serial collection loops,
// so the pool overlaps the work and any triple another experiment already
// ran on the same runner — the monolithic baselines especially — is a
// cache hit instead of a re-simulation.
func prefetch(runner *sim.Runner, o Options, schemes ...sim.Scheme) {
	runner.Prefetch(o.Benches, schemes, sim.Options{Insts: o.Insts})
}

// fmtF renders a float compactly.
func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtPct renders a fraction as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
