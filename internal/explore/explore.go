// Package explore implements the design-space exploration engine behind
// POST /v1/explore: instead of the client enumerating a scheme matrix,
// the service searches a parameter space (cache entries × associativity ×
// index policy × cache kind × MaxPRegs × MaxUse × read-port count ×
// workload thread count) for the Pareto frontier of performance
// (harmonic-mean IPC over a benchmark set) versus hardware cost (a
// documented area proxy, see cost.go).
//
// Two strategies are supported. `grid` evaluates every candidate at the
// full instruction budget. `halving` is successive halving: every
// candidate is simulated at a short budget, the top 1/eta by objective
// survive to the next rung at eta× the budget, and so on until the full
// budget; the final rung never eliminates, so the frontier is always
// computed over full-budget measurements.
//
// The engine never simulates anything itself: every rung is one sweep
// handed to an Evaluator (the serve plane routes it through sim.Runner
// and, when peers are configured, the fleet coordinator), so memoization,
// the durable store, and request coalescing make repeated or overlapping
// explorations cheap by construction. Results are the versioned Result
// schema (engine.go) with full elimination/domination provenance, which
// ValidateResult (validate.go) re-checks from scratch.
package explore

import (
	"errors"
	"fmt"

	"regcache/internal/core"
	"regcache/internal/sim"
)

// Bounds on the search space. Axes are capped per-axis and by the product
// of all axis lengths: a space that cannot fit is rejected up front with
// ErrSpaceTooLarge (the wire layer maps it to 413) before any admission
// or enumeration work.
const (
	// MaxCandidates bounds the candidate count of one exploration.
	MaxCandidates = 4096
	// maxAxisValues bounds one axis's expansion.
	maxAxisValues = 64
	// maxAxisValue bounds any single axis value (entries, ways, pregs…).
	maxAxisValue = 1 << 20
	// maxInsts bounds the per-candidate instruction budget.
	maxInsts = 1 << 40
	// maxRungs bounds the halving schedule length.
	maxRungs = 12
)

// ErrSpaceTooLarge marks a structurally valid request whose candidate
// space exceeds MaxCandidates (or an axis exceeding maxAxisValues): not
// malformed, but never admissible on this server. The serve plane answers
// it with 413 instead of 400.
var ErrSpaceTooLarge = errors.New("candidate space too large")

// Axis is one integer dimension of the search space: either an explicit
// value list or an inclusive min/max/step range, never both.
type Axis struct {
	Values []int `json:"values,omitempty"`
	Min    int   `json:"min,omitempty"`
	Max    int   `json:"max,omitempty"`
	Step   int   `json:"step,omitempty"`
}

// isRange reports whether any range field is set.
func (a Axis) isRange() bool { return a.Min != 0 || a.Max != 0 || a.Step != 0 }

// validate checks the axis shape. minValue is the smallest legal value
// (0 for ways, where 0 means fully associative; 1 elsewhere).
func (a Axis) validate(name string, minValue int) error {
	switch {
	case len(a.Values) > 0 && a.isRange():
		return fmt.Errorf("axis %s: give either values or min/max/step, not both", name)
	case len(a.Values) == 0 && !a.isRange():
		return fmt.Errorf("axis %s: needs values or min/max/step", name)
	case len(a.Values) > 0:
		if len(a.Values) > maxAxisValues {
			return fmt.Errorf("axis %s: %d values exceeds the %d-value axis bound: %w",
				name, len(a.Values), maxAxisValues, ErrSpaceTooLarge)
		}
		seen := make(map[int]bool, len(a.Values))
		for _, v := range a.Values {
			if v < minValue || v > maxAxisValue {
				return fmt.Errorf("axis %s: value %d out of range [%d, %d]", name, v, minValue, maxAxisValue)
			}
			if seen[v] {
				return fmt.Errorf("axis %s: duplicate value %d", name, v)
			}
			seen[v] = true
		}
		return nil
	default:
		if a.Step <= 0 {
			return fmt.Errorf("axis %s: step must be >= 1 (got %d)", name, a.Step)
		}
		if a.Max < a.Min {
			return fmt.Errorf("axis %s: inverted range [%d, %d]", name, a.Min, a.Max)
		}
		if a.Min < minValue || a.Max > maxAxisValue {
			return fmt.Errorf("axis %s: range [%d, %d] out of bounds [%d, %d]",
				name, a.Min, a.Max, minValue, maxAxisValue)
		}
		if n := (a.Max-a.Min)/a.Step + 1; n > maxAxisValues {
			return fmt.Errorf("axis %s: range expands to %d values, bound is %d: %w",
				name, n, maxAxisValues, ErrSpaceTooLarge)
		}
		return nil
	}
}

// expand returns the axis values in ascending enumeration order. Must be
// called only on a validated axis.
func (a Axis) expand() []int {
	if len(a.Values) > 0 {
		return a.Values
	}
	out := make([]int, 0, (a.Max-a.Min)/a.Step+1)
	for v := a.Min; v <= a.Max; v += a.Step {
		out = append(out, v)
	}
	return out
}

// count returns the axis length without materializing it.
func (a Axis) count() int {
	if len(a.Values) > 0 {
		return len(a.Values)
	}
	return (a.Max-a.Min)/a.Step + 1
}

// Space is the searched parameter region. Entries and Ways are required
// axes; Kinds and Index are enumerated policy lists (defaults: use-based
// insertion, decoupled filtered indexing); MaxPRegs and MaxUse are
// optional extra axes over the decoupled physical-register space and the
// use-predictor saturation. Ports and Threads are optional axes over the
// port-filtering and multithreaded-workload planes: Ports enumerates
// backing-file read-port counts (0 = the unported legacy model, so a
// frontier can compare filtered and unfiltered designs in one search),
// Threads enumerates workload context counts in [1, sim.MaxThreads].
type Space struct {
	Entries Axis     `json:"entries"`
	Ways    Axis     `json:"ways"`
	Kinds   []string `json:"kinds,omitempty"` // use | lru | nb; default ["use"]
	Index   []string `json:"index,omitempty"` // preg | rr | min | filtered; default ["filtered"]

	MaxPRegs *Axis `json:"max_pregs,omitempty"` // decoupled PReg space sizes
	MaxUse   *Axis `json:"max_use,omitempty"`   // use-counter saturation values
	Ports    *Axis `json:"ports,omitempty"`     // backing read-port counts; 0 = unported
	Threads  *Axis `json:"threads,omitempty"`   // workload context counts
}

// Spec is the full search request: the space, the strategy, and the
// instruction budgets.
type Spec struct {
	Space    Space  `json:"space"`
	Strategy string `json:"strategy,omitempty"`  // grid (default) | halving
	Insts    uint64 `json:"insts,omitempty"`     // full per-benchmark budget; 0 = sim.DefaultInsts
	MinInsts uint64 `json:"min_insts,omitempty"` // halving first-rung budget; 0 = Insts/8
	Eta      int    `json:"eta,omitempty"`       // halving keep-1/eta factor; 0 = 2
}

// Search strategies.
const (
	StrategyGrid    = "grid"
	StrategyHalving = "halving"
)

// WithDefaults returns the spec with every zero knob resolved, so two
// requests that differ only in explicit-vs-defaulted fields plan the same
// search and produce byte-identical result documents.
func (s Spec) WithDefaults() Spec {
	if s.Strategy == "" {
		s.Strategy = StrategyGrid
	}
	if s.Insts == 0 {
		s.Insts = sim.DefaultInsts
	}
	if s.Strategy == StrategyHalving {
		if s.Eta == 0 {
			s.Eta = 2
		}
		if s.MinInsts == 0 {
			s.MinInsts = s.Insts / 8
			if s.MinInsts == 0 {
				s.MinInsts = s.Insts
			}
		}
	}
	return s
}

// Validate checks a defaulted spec. Structural problems return plain
// errors (wire layer: 400); a space exceeding the server's candidate
// bound wraps ErrSpaceTooLarge (wire layer: 413). Call on the result of
// WithDefaults.
func (s Spec) Validate() error {
	switch s.Strategy {
	case StrategyGrid:
	case StrategyHalving:
		if s.Eta < 2 || s.Eta > 16 {
			return fmt.Errorf("eta %d out of range [2, 16]", s.Eta)
		}
	default:
		return fmt.Errorf("unknown strategy %q (want grid or halving)", s.Strategy)
	}
	if s.Insts > maxInsts {
		return fmt.Errorf("insts %d exceeds budget bound %d", s.Insts, uint64(maxInsts))
	}
	if s.MinInsts > maxInsts {
		return fmt.Errorf("min_insts %d exceeds budget bound %d", s.MinInsts, uint64(maxInsts))
	}
	if err := s.Space.validate(); err != nil {
		return err
	}
	return nil
}

func (sp Space) validate() error {
	if err := sp.Entries.validate("entries", 1); err != nil {
		return err
	}
	// Ways 0 means fully associative (core.Config semantics).
	if err := sp.Ways.validate("ways", 0); err != nil {
		return err
	}
	if err := validatePolicies("kinds", sp.Kinds, map[string]bool{"use": true, "lru": true, "nb": true}); err != nil {
		return err
	}
	if err := validatePolicies("index", sp.Index, map[string]bool{"preg": true, "rr": true, "min": true, "filtered": true}); err != nil {
		return err
	}
	if sp.MaxPRegs != nil {
		if err := sp.MaxPRegs.validate("max_pregs", 1); err != nil {
			return err
		}
	}
	if sp.MaxUse != nil {
		if err := sp.MaxUse.validate("max_use", 1); err != nil {
			return err
		}
	}
	// Ports and Threads are bounded by the simulator's own limits, far
	// below maxAxisValue, so they get an explicit post-check. Both axes
	// are short by construction (<= 65 and <= sim.MaxThreads values).
	if sp.Ports != nil {
		if err := sp.Ports.validate("ports", 0); err != nil {
			return err
		}
		for _, v := range sp.Ports.expand() {
			if v > sim.MaxReadPorts {
				return fmt.Errorf("axis ports: value %d exceeds the %d-port bound", v, sim.MaxReadPorts)
			}
		}
	}
	if sp.Threads != nil {
		if err := sp.Threads.validate("threads", 1); err != nil {
			return err
		}
		for _, v := range sp.Threads.expand() {
			if err := (sim.Options{Threads: v}).Validate(); err != nil {
				return fmt.Errorf("axis threads: %w", err)
			}
		}
	}
	// The candidate bound is checked on the full product, before any
	// enumeration: each factor is already <= maxAxisValues, so the
	// running product stays far from overflow once capped.
	n := sp.Entries.count() * sp.Ways.count()
	n *= listCount(sp.Kinds)
	n *= listCount(sp.Index)
	if sp.MaxPRegs != nil {
		n *= sp.MaxPRegs.count()
	}
	if n > MaxCandidates {
		return fmt.Errorf("space of %d candidates exceeds the %d-candidate bound: %w", n, MaxCandidates, ErrSpaceTooLarge)
	}
	if sp.MaxUse != nil {
		n *= sp.MaxUse.count()
	}
	if n > MaxCandidates {
		return fmt.Errorf("space of %d candidates exceeds the %d-candidate bound: %w", n, MaxCandidates, ErrSpaceTooLarge)
	}
	if sp.Ports != nil {
		n *= sp.Ports.count()
	}
	if sp.Threads != nil {
		n *= sp.Threads.count()
	}
	if n > MaxCandidates {
		return fmt.Errorf("space of %d candidates exceeds the %d-candidate bound: %w", n, MaxCandidates, ErrSpaceTooLarge)
	}
	return nil
}

func validatePolicies(name string, vals []string, known map[string]bool) error {
	seen := make(map[string]bool, len(vals))
	for _, v := range vals {
		if !known[v] {
			return fmt.Errorf("axis %s: unknown policy %q", name, v)
		}
		if seen[v] {
			return fmt.Errorf("axis %s: duplicate policy %q", name, v)
		}
		seen[v] = true
	}
	return nil
}

func listCount(vals []string) int {
	if len(vals) == 0 {
		return 1 // defaulted single policy
	}
	return len(vals)
}

// Candidate is one enumerated point of the space: a validated scheme
// plus the workload thread count it is evaluated under. Threads is 0 when
// the space has no Threads axis — the classic single-context machine —
// and carries the axis value otherwise (1 included, so a T=1 baseline
// rides the same search as its multithreaded variants). The scheme name
// already carries any -pN port and -tN thread suffixes, so candidate
// names stay unique and sweep runs match back by name alone.
type Candidate struct {
	Scheme  sim.Scheme
	Threads int
}

// Candidates enumerates the space as validated candidates in a fixed
// deterministic order (kind, entries, ways, index, max_pregs, max_use,
// ports, threads). Combinations the scheme layer rejects (indivisible
// geometry, PReg space below the machine's register count, …) are skipped
// and counted, not fatal: a rectangular space legitimately crosses
// validity boundaries. An entirely invalid space is an error.
func (s Spec) Candidates() (cands []Candidate, skipped int, err error) {
	kinds := s.Space.Kinds
	if len(kinds) == 0 {
		kinds = []string{"use"}
	}
	indexNames := s.Space.Index
	if len(indexNames) == 0 {
		indexNames = []string{"filtered"}
	}
	indexes := make([]core.IndexScheme, len(indexNames))
	for i, n := range indexNames {
		ix, perr := sim.ParseIndexScheme(n)
		if perr != nil {
			return nil, 0, perr
		}
		indexes[i] = ix
	}
	pregs := []int{0} // 0: scheme default (machine register count)
	if s.Space.MaxPRegs != nil {
		pregs = s.Space.MaxPRegs.expand()
	}
	uses := []int{0} // 0: scheme default saturation
	if s.Space.MaxUse != nil {
		uses = s.Space.MaxUse.expand()
	}
	ports := []int{0} // 0: unported legacy backing file
	if s.Space.Ports != nil {
		ports = s.Space.Ports.expand()
	}
	threads := []int{0} // 0: single-context workload
	if s.Space.Threads != nil {
		threads = s.Space.Threads.expand()
	}

	names := make(map[string]bool)
	for _, kind := range kinds {
		for _, entries := range s.Space.Entries.expand() {
			for _, ways := range s.Space.Ways.expand() {
				for _, ix := range indexes {
					for _, pr := range pregs {
						for _, mu := range uses {
							for _, po := range ports {
								for _, th := range threads {
									sc := buildCandidate(kind, entries, ways, ix)
									if s.Space.MaxPRegs != nil {
										sc.Cache.MaxPRegs = pr
										sc.Name = fmt.Sprintf("%s-p%d", sc.Name, pr)
									}
									if s.Space.MaxUse != nil {
										sc.Cache.MaxUse = mu
										sc.Name = fmt.Sprintf("%s-u%d", sc.Name, mu)
									}
									// Port 0 stays unsuffixed: it is the
									// legacy model, distinct by name from
									// every -pN filtered variant. (A live
									// MaxPRegs -pN suffix cannot collide: its
									// values validate only at >= the machine
									// register count, far above MaxReadPorts.)
									if po > 0 {
										sc = sc.WithPorts(po)
									}
									if s.Space.Threads != nil {
										sc.Name = fmt.Sprintf("%s-t%d", sc.Name, th)
									}
									if sc.Validate() != nil {
										skipped++
										continue
									}
									if names[sc.Name] {
										return nil, 0, fmt.Errorf("explore: duplicate candidate name %q", sc.Name)
									}
									names[sc.Name] = true
									cands = append(cands, Candidate{Scheme: sc, Threads: th})
								}
							}
						}
					}
				}
			}
		}
	}
	if len(cands) == 0 {
		return nil, 0, fmt.Errorf("explore: no valid candidate in the space (%d combinations all rejected)", skipped)
	}
	return cands, skipped, nil
}

func buildCandidate(kind string, entries, ways int, ix core.IndexScheme) sim.Scheme {
	switch kind {
	case "lru":
		return sim.LRU(entries, ways, ix)
	case "nb":
		return sim.NonBypass(entries, ways, ix)
	default:
		return sim.UseBased(entries, ways, ix)
	}
}
