package explore

// The hardware cost model: a deliberately simple, documented area proxy
// so frontiers are explainable and stable across engine versions.
//
// A register structure's area scales with entries × ports × bit-width,
// and port count is the quadratic term that motivates register caching in
// the first place: a W-wide machine needs up to 2W read and W write ports
// on whatever structure feeds execution, so we charge the fully-ported
// structure P = 3·IssueWidth ports per entry at 64 bits each.
//
//   - monolithic: the whole physical register file is fully ported —
//     NumPRegs · P · 64.
//   - cache schemes: only the cache is fully ported; the backing file
//     sits behind it (reads are filtered by the cache, writes drain
//     lazily) and is charged the R = max(1, ReadPorts) read ports the
//     pipeline simulates —
//     Entries · P · 64  +  PRegs · R · 64,
//     where PRegs is the scheme's decoupled tag space (Cache.MaxPRegs,
//     defaulting to the machine's register count). A larger MaxPRegs
//     buys fewer false-sharing conflicts at the price of a larger
//     backing file — exactly the trade-off the frontier should expose.
//   - two-level: the L1 is the ported structure, the L2 is the backing —
//     L1Entries · P · 64  +  NumPRegs · (P/8) · 64.
//
// The proxy is unitless ("bit-ports"); only ratios matter for dominance.

import (
	"regcache/internal/pipeline"
	"regcache/internal/sim"
)

// CostModelName identifies the cost function a Result was computed with;
// it is recorded in the document so a frontier is never compared across
// incompatible models.
const CostModelName = "bitports-v2"

const (
	costBitWidth        = 64.0
	costBackingPortFrac = 1.0 / 8
)

// Cost returns the area proxy for a scheme. It is positive for every
// scheme the sim layer accepts.
func Cost(s sim.Scheme) float64 {
	ports := 3 * float64(pipeline.IssueWidth)
	switch s.Kind {
	case pipeline.SchemeCache:
		pregs := s.Cache.MaxPRegs
		if pregs == 0 {
			pregs = pipeline.NumPRegs
		}
		backingPorts := float64(max(1, s.ReadPorts))
		return float64(s.Cache.Entries)*ports*costBitWidth +
			float64(pregs)*backingPorts*costBitWidth
	case pipeline.SchemeTwoLevel:
		return float64(s.TwoLevel.L1Entries)*ports*costBitWidth +
			float64(pipeline.NumPRegs)*ports*costBackingPortFrac*costBitWidth
	default: // monolithic
		return float64(pipeline.NumPRegs) * ports * costBitWidth
	}
}
