package explore

// ValidateResult re-derives everything checkable about a Result from its
// own contents: checkresults runs it over the smoke artifact, and any
// consumer can run it over an archived frontier before trusting it.

import (
	"fmt"
	"sort"

	"regcache/internal/sim"
)

// ValidateResult checks a Result document for internal consistency:
// monotone rung budgets with exact survivor chaining, per-point
// provenance that refers to real points, and a Frontier that is exactly
// the non-dominated set over the full-budget survivors (recomputed here,
// not trusted).
func ValidateResult(r *Result) error {
	if r.SchemaVersion != ResultSchemaVersion {
		return fmt.Errorf("schema version %d, want %d", r.SchemaVersion, ResultSchemaVersion)
	}
	if r.Generator == "" {
		return fmt.Errorf("missing generator")
	}
	if r.Strategy != StrategyGrid && r.Strategy != StrategyHalving {
		return fmt.Errorf("unknown strategy %q", r.Strategy)
	}
	if r.Objective != ObjectiveName {
		return fmt.Errorf("unknown objective %q", r.Objective)
	}
	if r.CostModel != CostModelName {
		return fmt.Errorf("unknown cost model %q", r.CostModel)
	}
	if len(r.Benches) == 0 {
		return fmt.Errorf("no benches")
	}
	if len(r.Points) == 0 {
		return fmt.Errorf("no points")
	}
	if len(r.Rungs) == 0 {
		return fmt.Errorf("no rungs")
	}
	if r.Strategy == StrategyGrid && len(r.Rungs) != 1 {
		return fmt.Errorf("grid strategy with %d rungs", len(r.Rungs))
	}

	// Rung schedule: numbered consecutively, strictly increasing budgets
	// ending at the full budget, survivors chained rung to rung, the last
	// rung never eliminating.
	for i, rg := range r.Rungs {
		if rg.Rung != i {
			return fmt.Errorf("rung %d: numbered %d", i, rg.Rung)
		}
		if i > 0 && rg.Insts <= r.Rungs[i-1].Insts {
			return fmt.Errorf("rung %d: budget %d not above rung %d's %d", i, rg.Insts, i-1, r.Rungs[i-1].Insts)
		}
		if rg.Survivors < 1 || rg.Survivors > rg.Candidates {
			return fmt.Errorf("rung %d: %d survivors of %d candidates", i, rg.Survivors, rg.Candidates)
		}
		if i > 0 && rg.Candidates != r.Rungs[i-1].Survivors {
			return fmt.Errorf("rung %d: %d candidates but rung %d kept %d", i, rg.Candidates, i-1, r.Rungs[i-1].Survivors)
		}
	}
	last := len(r.Rungs) - 1
	if r.Rungs[last].Insts != r.Insts {
		return fmt.Errorf("last rung budget %d != full budget %d", r.Rungs[last].Insts, r.Insts)
	}
	if r.Rungs[0].Candidates != len(r.Points) {
		return fmt.Errorf("rung 0 has %d candidates, document has %d points", r.Rungs[0].Candidates, len(r.Points))
	}
	if r.Rungs[last].Survivors != r.Rungs[last].Candidates {
		return fmt.Errorf("last rung eliminated candidates (%d -> %d)", r.Rungs[last].Candidates, r.Rungs[last].Survivors)
	}

	// Per-point provenance.
	names := make(map[string]bool, len(r.Points))
	frontierSet := make(map[int]bool, len(r.Frontier))
	for _, i := range r.Frontier {
		if i < 0 || i >= len(r.Points) {
			return fmt.Errorf("frontier refers to point %d of %d", i, len(r.Points))
		}
		frontierSet[i] = true
	}
	eliminatedAt := make([]int, len(r.Rungs))
	var survivors []int
	for i, p := range r.Points {
		if p.Index != i {
			return fmt.Errorf("point %d: indexed %d", i, p.Index)
		}
		if p.Scheme.Name == "" {
			return fmt.Errorf("point %d: unnamed scheme", i)
		}
		if names[p.Scheme.Name] {
			return fmt.Errorf("point %d: duplicate scheme name %q", i, p.Scheme.Name)
		}
		names[p.Scheme.Name] = true
		if p.Cost <= 0 || p.Objective <= 0 {
			return fmt.Errorf("point %d (%s): non-positive cost/objective", i, p.Scheme.Name)
		}
		if err := (sim.Options{Threads: p.Threads}).Validate(); err != nil {
			return fmt.Errorf("point %d (%s): %w", i, p.Scheme.Name, err)
		}
		switch p.Status {
		case StatusEliminated:
			if p.LastRung < 0 || p.LastRung >= last {
				return fmt.Errorf("point %d: eliminated at terminal rung %d", i, p.LastRung)
			}
			if p.EliminatedAtRung != p.LastRung {
				return fmt.Errorf("point %d: eliminated at rung %d but last evaluated at %d", i, p.EliminatedAtRung, p.LastRung)
			}
			if p.DominatedBy != -1 {
				return fmt.Errorf("point %d: eliminated yet dominated by %d", i, p.DominatedBy)
			}
			eliminatedAt[p.LastRung]++
		case StatusFrontier, StatusDominated:
			if p.LastRung != last {
				return fmt.Errorf("point %d: status %s but last rung %d of %d", i, p.Status, p.LastRung, last)
			}
			if p.EliminatedAtRung != -1 {
				return fmt.Errorf("point %d: surviving point carries elimination rung %d", i, p.EliminatedAtRung)
			}
			if (p.Status == StatusFrontier) != frontierSet[i] {
				return fmt.Errorf("point %d: status %s disagrees with frontier list", i, p.Status)
			}
			if p.Status == StatusFrontier && p.DominatedBy != -1 {
				return fmt.Errorf("point %d: frontier point dominated by %d", i, p.DominatedBy)
			}
			if p.Status == StatusDominated {
				d := p.DominatedBy
				if d < 0 || d >= len(r.Points) || !frontierSet[d] {
					return fmt.Errorf("point %d: dominated_by %d is not a frontier point", i, d)
				}
				dp := r.Points[d]
				if !Dominates(Point{dp.Objective, dp.Cost}, Point{p.Objective, p.Cost}) {
					return fmt.Errorf("point %d: claimed dominator %d does not dominate it", i, d)
				}
			}
			survivors = append(survivors, i)
		default:
			return fmt.Errorf("point %d: unknown status %q", i, p.Status)
		}
	}

	// Eliminations must account exactly for each rung's cut.
	for i, rg := range r.Rungs {
		if cut := rg.Candidates - rg.Survivors; eliminatedAt[i] != cut {
			return fmt.Errorf("rung %d: %d points eliminated, schedule cut %d", i, eliminatedAt[i], cut)
		}
	}
	if len(survivors) != r.Rungs[last].Survivors {
		return fmt.Errorf("%d surviving points, last rung kept %d", len(survivors), r.Rungs[last].Survivors)
	}

	// The frontier must be exactly the recomputed non-dominated set over
	// the survivors, listed in cost-ascending (then index) order.
	ps := make([]Point, len(survivors))
	for k, i := range survivors {
		ps[k] = Point{Objective: r.Points[i].Objective, Cost: r.Points[i].Cost}
	}
	want := make(map[int]bool, len(survivors))
	for _, k := range ParetoFrontier(ps) {
		want[survivors[k]] = true
	}
	if len(want) != len(r.Frontier) {
		return fmt.Errorf("frontier lists %d points, recomputation finds %d", len(r.Frontier), len(want))
	}
	for _, i := range r.Frontier {
		if !want[i] {
			return fmt.Errorf("frontier point %d is dominated on recomputation", i)
		}
	}
	ordered := sort.SliceIsSorted(r.Frontier, func(a, b int) bool {
		pa, pb := r.Points[r.Frontier[a]], r.Points[r.Frontier[b]]
		if pa.Cost != pb.Cost {
			return pa.Cost < pb.Cost
		}
		return pa.Index < pb.Index
	})
	if !ordered {
		return fmt.Errorf("frontier not in cost-ascending order")
	}
	return nil
}
