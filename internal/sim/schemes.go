package sim

// This file gives the service plane (internal/serve, cmd/regsimd,
// cmd/regsimc) two ways to name a scheme over the wire: a compact
// colon-separated spec string for humans ("use:64x2:filtered"), and a
// reverse mapping from the versioned SchemeRecord JSON so a results file's
// scheme block can be resubmitted verbatim as a sweep request.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"regcache/internal/core"
	"regcache/internal/pipeline"
	"regcache/internal/twolevel"
)

// Bounds on wire-supplied scheme parameters. They sit far beyond any
// physically meaningful design point; their job is to keep a hostile or
// corrupted request from driving the simulator into panics or absurd
// allocations (the service plane feeds client JSON straight into these
// configurations).
const (
	maxCacheEntries  = 1 << 16 // the paper's largest sweep point is 128
	maxLatencyCycles = 1 << 10
	maxPRegSpace     = 1 << 20
)

// MaxReadPorts bounds a scheme's backing-file read-port count. An 8-wide
// machine requests at most 16 fills per cycle, so 16 ports already never
// make a fill wait; exported so the explore layer can bound its Ports
// axis with the same constant the scheme validator uses.
const MaxReadPorts = 64

// ParseIndexScheme parses an index scheme name. It accepts both the
// String() forms and the short CLI aliases.
func ParseIndexScheme(name string) (core.IndexScheme, error) {
	switch name {
	case "preg":
		return core.IndexPReg, nil
	case "rr", "round-robin", "roundrobin":
		return core.IndexRoundRobin, nil
	case "min", "minimum":
		return core.IndexMinimum, nil
	case "filtered", "frr":
		return core.IndexFilteredRR, nil
	}
	return 0, fmt.Errorf("sim: unknown index scheme %q", name)
}

// ParseSchemeSpec parses a compact scheme spec:
//
//	mono[:latency]          monolithic register file (default latency 3)
//	use:ExW[:index]         use-based cache, e.g. use:64x2:filtered
//	lru:ExW[:index]         LRU reference cache (default index rr)
//	nb:ExW[:index]          non-bypass reference cache (default index rr)
//	port:ExW[:index][:pN]   port-filtering use-based cache (default 2 ports)
//	twolevel:L1[:l2lat]     two-level file, e.g. twolevel:96:2
//
// Cache specs default the index to the kind's conventional choice
// (filtered for use and port, round-robin otherwise). Any spec may append
// the modifiers ":oracle" (perfect degree-of-use knowledge), ":bN"
// (backing-file latency override), and — on cache kinds — ":pN"
// (backing-file read-port count, turning the scheme into a port-filtering
// design point), in any order.
//
// Errors name the offending field by 1-based position within the spec so
// a bad sweep request pinpoints its own typo ("field 2 (\"64y2\"): ...").
func ParseSchemeSpec(spec string) (Scheme, error) {
	parts := strings.Split(spec, ":")
	kind := parts[0]
	rest := parts[1:]
	// base tracks how many leading fields of the original rest have been
	// consumed, so rest[i] is field base+i+2 of the spec (1-based, with
	// the kind as field 1). Modifiers peel off the end and do not shift
	// front positions.
	base := 0
	// badField formats an error naming the offending token and position.
	badField := func(i int, tok, msg string) error {
		return fmt.Errorf("sim: scheme spec %q: field %d (%q): %s", spec, base+i+2, tok, msg)
	}

	// Peel trailing modifiers off rest.
	oracle := false
	backing, ports := 0, 0
	for len(rest) > 0 {
		i := len(rest) - 1
		last := rest[i]
		if last == "oracle" {
			oracle = true
			rest = rest[:i]
			continue
		}
		if len(last) > 1 && last[0] == 'b' {
			if n, err := strconv.Atoi(last[1:]); err == nil {
				if n < 1 {
					return Scheme{}, badField(i, last, "backing latency must be >= 1")
				}
				backing = n
				rest = rest[:i]
				continue
			}
		}
		if len(last) > 1 && last[0] == 'p' {
			if n, err := strconv.Atoi(last[1:]); err == nil {
				if n < 1 {
					return Scheme{}, badField(i, last, "read-port count must be >= 1")
				}
				ports = n
				rest = rest[:i]
				continue
			}
		}
		break
	}

	var s Scheme
	switch kind {
	case "mono", "monolithic", "rf":
		lat := 3
		if len(rest) > 0 {
			n, err := strconv.Atoi(rest[0])
			if err != nil || n < 1 {
				return Scheme{}, badField(0, rest[0], "bad monolithic latency (want a cycle count >= 1)")
			}
			lat = n
			rest, base = rest[1:], base+1
		}
		s = Monolithic(lat)
	case "use", "lru", "nb", "port":
		if len(rest) == 0 {
			return Scheme{}, fmt.Errorf("sim: scheme spec %q: %q needs a geometry, e.g. %s:64x2", spec, kind, kind)
		}
		entries, ways, err := parseGeometry(rest[0])
		if err != nil {
			return Scheme{}, badField(0, rest[0], err.Error())
		}
		rest, base = rest[1:], base+1
		idx := core.IndexRoundRobin
		if kind == "use" || kind == "port" {
			idx = core.IndexFilteredRR
		}
		if len(rest) > 0 {
			idx, err = ParseIndexScheme(rest[0])
			if err != nil {
				return Scheme{}, badField(0, rest[0], "unknown index scheme")
			}
			rest, base = rest[1:], base+1
		}
		switch kind {
		case "use":
			s = UseBased(entries, ways, idx)
		case "lru":
			s = LRU(entries, ways, idx)
		case "nb":
			s = NonBypass(entries, ways, idx)
		case "port":
			if ports == 0 {
				ports = 2
			}
			s = PortFiltered(entries, ways, idx, ports)
			ports = 0 // consumed into the name; don't re-apply below
		}
	case "twolevel", "two-level":
		if len(rest) == 0 {
			return Scheme{}, fmt.Errorf("sim: scheme spec %q: twolevel needs an L1 size, e.g. twolevel:96", spec)
		}
		l1, err := strconv.Atoi(rest[0])
		if err != nil || l1 < 1 {
			return Scheme{}, badField(0, rest[0], "bad two-level L1 size (want an entry count >= 1)")
		}
		rest, base = rest[1:], base+1
		l2 := 2
		if len(rest) > 0 {
			l2, err = strconv.Atoi(rest[0])
			if err != nil || l2 < 1 {
				return Scheme{}, badField(0, rest[0], "bad two-level L2 latency (want a cycle count >= 1)")
			}
			rest, base = rest[1:], base+1
		}
		s = TwoLevel(l1, l2)
	default:
		return Scheme{}, fmt.Errorf("sim: scheme spec %q: field 1 (%q): unknown scheme kind", spec, kind)
	}
	if len(rest) > 0 {
		return Scheme{}, badField(0, rest[0], fmt.Sprintf("trailing fields %v", rest))
	}
	if ports != 0 {
		s = s.WithPorts(ports)
	}
	if backing != 0 {
		s = s.WithBacking(backing)
	}
	if oracle {
		s = s.WithOracle()
	}
	if err := s.Validate(); err != nil {
		return Scheme{}, err
	}
	return s, nil
}

// parseGeometry parses "ExW" ("64x2"). Ways 0 means fully associative, as
// in core.Config.
func parseGeometry(g string) (entries, ways int, err error) {
	e, w, ok := strings.Cut(g, "x")
	if !ok {
		return 0, 0, fmt.Errorf("bad geometry %q (want ExW, e.g. 64x2)", g)
	}
	entries, err = strconv.Atoi(e)
	if err != nil || entries < 1 {
		return 0, 0, fmt.Errorf("bad entry count in geometry %q", g)
	}
	ways, err = strconv.Atoi(w)
	if err != nil || ways < 0 {
		return 0, 0, fmt.Errorf("bad way count in geometry %q", g)
	}
	if entries > maxCacheEntries {
		return 0, 0, fmt.Errorf("entry count %d in geometry %q exceeds %d", entries, g, maxCacheEntries)
	}
	if ways > entries {
		return 0, 0, fmt.Errorf("geometry %q has more ways than entries", g)
	}
	if ways > 0 && entries%ways != 0 {
		return 0, 0, fmt.Errorf("geometry %q: %d entries not divisible by %d ways", g, entries, ways)
	}
	return entries, ways, nil
}

// Validate rejects schemes the simulator cannot run safely. Builders in
// this package always produce valid schemes; the check exists for
// configurations that arrive over the wire (sweep requests carrying
// arbitrary SchemeRecord JSON), where a bad geometry or register-space
// size would otherwise panic deep inside core or pipeline.
func (s Scheme) Validate() error {
	if s.Name == "" {
		return errors.New("sim: scheme needs a name")
	}
	if s.RFLatency < 0 || s.RFLatency > maxLatencyCycles {
		return fmt.Errorf("sim: scheme %q: register file latency %d outside [0,%d]", s.Name, s.RFLatency, maxLatencyCycles)
	}
	if s.BackingLatency < 0 || s.BackingLatency > maxLatencyCycles {
		return fmt.Errorf("sim: scheme %q: backing latency %d outside [0,%d]", s.Name, s.BackingLatency, maxLatencyCycles)
	}
	if s.ReadPorts < 0 || s.ReadPorts > MaxReadPorts {
		return fmt.Errorf("sim: scheme %q: read ports %d outside [0,%d]", s.Name, s.ReadPorts, MaxReadPorts)
	}
	if s.ReadPorts > 0 && s.Kind != pipeline.SchemeCache {
		return fmt.Errorf("sim: scheme %q: read-port filtering requires a cache kind, got %s", s.Name, s.Kind)
	}
	switch s.Kind {
	case pipeline.SchemeMonolithic:
		return nil
	case pipeline.SchemeCache:
		return validateCacheConfig(s.Name, s.Cache)
	case pipeline.SchemeTwoLevel:
		return validateTwoLevelConfig(s.Name, s.TwoLevel)
	}
	return fmt.Errorf("sim: scheme %q: unknown kind %d", s.Name, int(s.Kind))
}

// validateCacheConfig checks a core.Config against the constraints core.New
// and the pipeline enforce by panicking: a set-divisible geometry and a
// physical register space at least as large as the machine's.
func validateCacheConfig(name string, c core.Config) error {
	if c.Entries < 1 || c.Entries > maxCacheEntries {
		return fmt.Errorf("sim: scheme %q: cache entries %d outside [1,%d]", name, c.Entries, maxCacheEntries)
	}
	if c.Ways < 0 || c.Ways > c.Entries {
		return fmt.Errorf("sim: scheme %q: %d ways outside [0,%d] (0 = fully associative)", name, c.Ways, c.Entries)
	}
	if c.Ways > 0 && c.Entries%c.Ways != 0 {
		return fmt.Errorf("sim: scheme %q: %d entries not divisible by %d ways", name, c.Entries, c.Ways)
	}
	switch c.Insert {
	case core.InsertAlways, core.InsertNonBypass, core.InsertUseBased:
	default:
		return fmt.Errorf("sim: scheme %q: unknown insert policy %d", name, int(c.Insert))
	}
	switch c.Replace {
	case core.ReplaceLRU, core.ReplaceUseBased, core.ReplaceRandom:
	default:
		return fmt.Errorf("sim: scheme %q: unknown replace policy %d", name, int(c.Replace))
	}
	switch c.Index {
	case core.IndexPReg, core.IndexRoundRobin, core.IndexMinimum, core.IndexFilteredRR:
	default:
		return fmt.Errorf("sim: scheme %q: unknown index scheme %d", name, int(c.Index))
	}
	// Remaining-use counts saturate into a uint8 in the pipeline's
	// per-preg state; negatives break the pin/saturation arithmetic.
	for _, f := range []struct {
		what string
		v    int
	}{
		{"max use", c.MaxUse},
		{"unknown-default uses", c.UnknownDefault},
		{"fill-default uses", c.FillDefault},
	} {
		if f.v < 0 || f.v > 255 {
			return fmt.Errorf("sim: scheme %q: %s %d outside [0,255]", name, f.what, f.v)
		}
	}
	if c.HighUseCutoff < 0 {
		return fmt.Errorf("sim: scheme %q: negative high-use cutoff %d", name, c.HighUseCutoff)
	}
	if c.SetSkipThreshold < 0 {
		return fmt.Errorf("sim: scheme %q: negative set-skip threshold %d", name, c.SetSkipThreshold)
	}
	// Zero defaults to the machine's NumPRegs; an explicit value must
	// cover it, or core panics on the first out-of-range tag.
	if c.MaxPRegs != 0 && (c.MaxPRegs < pipeline.NumPRegs || c.MaxPRegs > maxPRegSpace) {
		return fmt.Errorf("sim: scheme %q: MaxPRegs %d outside [%d,%d]", name, c.MaxPRegs, pipeline.NumPRegs, maxPRegSpace)
	}
	return nil
}

// validateTwoLevelConfig checks a twolevel.Config: a non-positive L1
// capacity gates rename forever (deadlock), and negative latencies or
// bandwidths break the timing wheel and migration loops.
func validateTwoLevelConfig(name string, c twolevel.Config) error {
	if c.L1Entries < 0 || c.L1Entries > maxCacheEntries {
		return fmt.Errorf("sim: scheme %q: two-level L1 entries %d outside [0,%d]", name, c.L1Entries, maxCacheEntries)
	}
	if c.L2Latency < 0 || c.L2Latency > maxLatencyCycles {
		return fmt.Errorf("sim: scheme %q: two-level L2 latency %d outside [0,%d]", name, c.L2Latency, maxLatencyCycles)
	}
	if c.CopyBandwidth < 0 {
		return fmt.Errorf("sim: scheme %q: negative two-level copy bandwidth %d", name, c.CopyBandwidth)
	}
	if c.FreeThreshold < 0 {
		return fmt.Errorf("sim: scheme %q: negative two-level free threshold %d", name, c.FreeThreshold)
	}
	if c.RefillSlack < 0 {
		return fmt.Errorf("sim: scheme %q: negative two-level refill slack %d", name, c.RefillSlack)
	}
	return nil
}

// ToScheme is the inverse of NewSchemeRecord: it rebuilds the runnable
// Scheme a record serializes, so a sweep request can carry full-fidelity
// scheme configurations (including ones no compact spec can express).
// The result is validated: a record may come from an arbitrary client,
// not only from a results file this process wrote.
func (r SchemeRecord) ToScheme() (Scheme, error) {
	s := Scheme{
		Name:           r.Name,
		RFLatency:      r.RFLatency,
		BackingLatency: r.BackingLatency,
		OracleUses:     r.OracleUses,
		ReadPorts:      r.ReadPorts,
	}
	switch r.Kind {
	case pipeline.SchemeMonolithic.String():
		s.Kind = pipeline.SchemeMonolithic
	case pipeline.SchemeCache.String():
		s.Kind = pipeline.SchemeCache
		if r.Cache == nil {
			return Scheme{}, fmt.Errorf("sim: scheme record %q: cache kind without cache config", r.Name)
		}
		s.Cache = *r.Cache
	case pipeline.SchemeTwoLevel.String():
		s.Kind = pipeline.SchemeTwoLevel
		if r.TwoLevel == nil {
			return Scheme{}, fmt.Errorf("sim: scheme record %q: two-level kind without config", r.Name)
		}
		s.TwoLevel = *r.TwoLevel
	default:
		return Scheme{}, fmt.Errorf("sim: scheme record %q: unknown kind %q", r.Name, r.Kind)
	}
	if err := s.Validate(); err != nil {
		return Scheme{}, err
	}
	return s, nil
}
