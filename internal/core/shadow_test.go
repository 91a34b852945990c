package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// lookup returns p's residency and use state without side effects.
func (s *faShadow) lookup(p PReg) (uses int, pinned, ok bool) {
	w := int(s.way[p])
	if w < 0 {
		return 0, false, false
	}
	return int(s.uses[w]), s.pinned[w], true
}

// TestShadowMatchesFullyAssociativeCache runs the miss-classification
// shadow in lockstep with a fully-associative Cache of the same size and
// policies, the structure whose residency the shadow must reproduce. One
// random stream of Allocate/Produce/Read/Fill/NoteBypassUse/Free/Retire
// operations drives a classifying Cache (and through it the shadow) and
// the reference; after every operation each preg's residency, remaining
// uses and pinned bit must agree, and every classified miss must be a
// conflict exactly when the reference hits. The clock advances only every
// few operations, so same-cycle LRU ties reach the lowest-way tie-break.
func TestShadowMatchesFullyAssociativeCache(t *testing.T) {
	geometries := []struct{ entries, ways int }{{1, 1}, {3, 1}, {64, 2}, {65, 5}, {128, 4}}
	indexes := []IndexScheme{IndexPReg, IndexRoundRobin, IndexMinimum, IndexFilteredRR}
	n := 0
	for _, g := range geometries {
		for _, ins := range []InsertPolicy{InsertAlways, InsertNonBypass, InsertUseBased} {
			for _, rep := range []ReplacePolicy{ReplaceLRU, ReplaceUseBased, ReplaceRandom} {
				for _, maxUse := range []int{1, 7, 255} {
					n++
					cfg := Config{
						Entries: g.entries, Ways: g.ways,
						Insert: ins, Replace: rep, Index: indexes[n%len(indexes)],
						MaxUse: maxUse, FillDefault: maxUse * (n % 2),
						MaxPRegs:       2*g.entries + 8,
						ClassifyMisses: true,
					}
					name := fmt.Sprintf("%dx%d/%v/%v/maxuse%d", g.entries, g.ways, ins, rep, maxUse)
					t.Run(name, func(t *testing.T) {
						shadowLockstep(t, cfg, rand.New(rand.NewPCG(uint64(n), 21)), 2000)
					})
				}
			}
		}
	}
}

func shadowLockstep(t *testing.T, cfg Config, rng *rand.Rand, ops int) {
	c := New(cfg)
	if c.shadow == nil {
		// A fully-associative primary needs no shadow; give it one anyway
		// so the smallest geometries are covered too.
		c.shadow = newFAShadow(c.cfg.Entries, c.cfg.MaxPRegs, c.cfg.Replace)
	}
	refCfg := cfg
	refCfg.Ways, refCfg.ClassifyMisses = 0, false
	ref := New(refCfg)

	npregs := cfg.MaxPRegs
	sets := make([]int, npregs)
	pred := make([]int, npregs)
	live := make([]bool, npregs)
	now := uint64(0)
	if rng.IntN(2) == 0 {
		now = 1<<52 - uint64(ops) - 1 // the top of the packed keys' touch-cycle field
	}
	for i := 0; i < ops; i++ {
		if rng.IntN(3) == 0 {
			now++
		}
		p := PReg(rng.IntN(npregs))
		var op string
		switch k := rng.IntN(32); {
		case !live[p] || k == 0:
			// k == 0 reallocates a live preg without freeing it, which the
			// pipeline never does; the two must agree even then.
			op = "allocate"
			pred[p] = rng.IntN(cfg.MaxUse + 1)
			if rng.IntN(4) == 0 {
				pred[p] = cfg.MaxUse // a saturated prediction pins
			}
			sets[p] = c.Allocate(p, pred[p])
			ref.Allocate(p, pred[p])
			live[p] = true
		case k < 10:
			op = "produce"
			pinned := c.Pins(pred[p])
			remaining := pred[p]
			if !pinned {
				remaining = rng.IntN(pred[p] + 1)
			}
			bypassed := remaining < pred[p] || rng.IntN(4) == 0
			if got, want := c.Produce(p, sets[p], remaining, pinned, bypassed, now),
				ref.Produce(p, 0, remaining, pinned, bypassed, now); got != want {
				t.Fatalf("op %d produce p%d: primary inserted %v, reference %v (same insert policy)", i, p, got, want)
			}
		case k < 20:
			op = "read"
			before := c.Stats.MissBy
			c.Read(p, sets[p], now)
			refHit := ref.Read(p, 0, now)
			if c.Stats.MissBy[MissConflict] != before[MissConflict] && !refHit {
				t.Fatalf("op %d read p%d: conflict miss, but the fully-associative reference missed too", i, p)
			}
			if c.Stats.MissBy[MissCapacity] != before[MissCapacity] && refHit {
				t.Fatalf("op %d read p%d: capacity miss, but the fully-associative reference hit", i, p)
			}
		case k < 24:
			op = "fill"
			c.Fill(p, sets[p], now)
			ref.Fill(p, 0, now)
		case k < 28:
			op = "bypass-use"
			c.NoteBypassUse(p, sets[p])
			ref.NoteBypassUse(p, 0)
		case k < 30:
			op = "free"
			c.Free(p, now)
			ref.Free(p, now)
			live[p] = false
		default:
			op = "retire"
			c.Retire(p)
			ref.Retire(p)
		}
		for q := PReg(0); q < PReg(npregs); q++ {
			su, sp, sok := c.shadow.lookup(q)
			ru, rp, rok := ref.lookup(q, 0)
			if su != ru || sp != rp || sok != rok {
				t.Fatalf("op %d (%s p%d, now %d): p%d shadow (uses %d, pinned %v, resident %v), reference (uses %d, pinned %v, resident %v)",
					i, op, p, now, q, su, sp, sok, ru, rp, rok)
			}
		}
	}
}

// TestNewRejectsUseCountsAboveBound: remaining-use counts must fit the
// shadow's uint8 ways, so a configuration whose counts could not is
// refused at construction instead of misordering victims later.
func TestNewRejectsUseCountsAboveBound(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 4, Ways: 2, MaxUse: maxUses + 1},
		{Entries: 4, Ways: 2, MaxUse: -1},
		{Entries: 4, Ways: 2, FillDefault: maxUses + 1},
		{Entries: 4, Ways: 2, FillDefault: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v): expected panic, got none", cfg)
				}
			}()
			New(cfg)
		}()
	}
	New(Config{Entries: 4, Ways: 2, MaxUse: maxUses, FillDefault: maxUses, ClassifyMisses: true})
}
