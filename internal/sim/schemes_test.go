package sim

import (
	"strconv"
	"strings"
	"testing"

	"regcache/internal/core"
	"regcache/internal/pipeline"
	"regcache/internal/twolevel"
)

func TestParseSchemeSpec(t *testing.T) {
	cases := []struct {
		spec string
		want Scheme
	}{
		{"mono", Monolithic(3)},
		{"mono:1", Monolithic(1)},
		{"monolithic:5", Monolithic(5)},
		{"rf:3", Monolithic(3)},
		{"use:64x2", UseBased(64, 2, core.IndexFilteredRR)},
		{"use:64x2:filtered", UseBased(64, 2, core.IndexFilteredRR)},
		{"use:64x2:frr", UseBased(64, 2, core.IndexFilteredRR)},
		{"use:32x4:preg", UseBased(32, 4, core.IndexPReg)},
		{"use:16x0:min", UseBased(16, 0, core.IndexMinimum)},
		{"use:64x2:rr", UseBased(64, 2, core.IndexRoundRobin)},
		{"use:64x2:round-robin", UseBased(64, 2, core.IndexRoundRobin)},
		{"lru:64x2", LRU(64, 2, core.IndexRoundRobin)},
		{"lru:64x2:minimum", LRU(64, 2, core.IndexMinimum)},
		{"nb:64x2", NonBypass(64, 2, core.IndexRoundRobin)},
		{"twolevel:96", TwoLevel(96, 2)},
		{"twolevel:96:4", TwoLevel(96, 4)},
		{"two-level:48:2", TwoLevel(48, 2)},
		{"use:64x2:oracle", UseBased(64, 2, core.IndexFilteredRR).WithOracle()},
		{"use:64x2:preg:oracle", UseBased(64, 2, core.IndexPReg).WithOracle()},
		{"use:64x2:b5", UseBased(64, 2, core.IndexFilteredRR).WithBacking(5)},
		{"use:64x2:oracle:b5", UseBased(64, 2, core.IndexFilteredRR).WithBacking(5).WithOracle()},
		{"use:64x2:b5:oracle", UseBased(64, 2, core.IndexFilteredRR).WithBacking(5).WithOracle()},
		{"mono:2:oracle", Monolithic(2).WithOracle()},
		{"port:64x2", PortFiltered(64, 2, core.IndexFilteredRR, 2)},
		{"port:64x2:p4", PortFiltered(64, 2, core.IndexFilteredRR, 4)},
		{"port:64x2:preg:p1", PortFiltered(64, 2, core.IndexPReg, 1)},
		{"port:32x4:rr:p2:b5", PortFiltered(32, 4, core.IndexRoundRobin, 2).WithBacking(5)},
		{"port:64x2:oracle", PortFiltered(64, 2, core.IndexFilteredRR, 2).WithOracle()},
		{"use:64x2:p2", UseBased(64, 2, core.IndexFilteredRR).WithPorts(2)},
		{"lru:64x2:rr:p3", LRU(64, 2, core.IndexRoundRobin).WithPorts(3)},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			got, err := ParseSchemeSpec(tc.spec)
			if err != nil {
				t.Fatalf("ParseSchemeSpec(%q): %v", tc.spec, err)
			}
			if got != tc.want {
				t.Errorf("ParseSchemeSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
			}
		})
	}
}

// TestSchemeNames pins the names specs resolve to. Two-level names carry
// the L2 latency only when it is not the default 2 cycles, so every
// default-latency name stays as it was and Figure 12's two-level series
// keeps its latencies apart.
func TestSchemeNames(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"twolevel:96", "twolevel-96"},
		{"twolevel:96:2", "twolevel-96"},
		{"twolevel:96:1", "twolevel-96-l1"},
		{"twolevel:96:3", "twolevel-96-l3"},
		{"two-level:160:4", "twolevel-160-l4"},
		{"twolevel:96:3:oracle", "twolevel-96-l3-oracle"},
		{"use:64x2", "use-64x2-filtered"},
		{"use:64x2:p1", "use-64x2-filtered-p1"},
		{"port:16x2:p2", "port-16x2-filtered-p2"},
		{"mono:3", "rf-3cyc"},
	} {
		s, err := ParseSchemeSpec(tc.spec)
		if err != nil {
			t.Fatalf("ParseSchemeSpec(%q): %v", tc.spec, err)
		}
		if s.Name != tc.want {
			t.Errorf("ParseSchemeSpec(%q).Name = %q, want %q", tc.spec, s.Name, tc.want)
		}
	}
}

func TestParseSchemeSpecErrors(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr string // substring of the error message
	}{
		{"", "unknown scheme kind"},
		{"bogus", "unknown scheme kind"},
		{"mono:zero", "bad monolithic latency"},
		{"mono:0", "bad monolithic latency"},
		{"mono:3:junk", "trailing fields"},
		{"use", "needs a geometry"},
		{"use:64", "bad geometry"},
		{"use:x2", "bad entry count"},
		{"use:64x", "bad way count"},
		{"use:0x2", "bad entry count"},
		{"use:64x-1", "bad way count"},
		{"use:64x2:bogusindex", "unknown index scheme"},
		// A geometry whose ways don't divide entries must be rejected at
		// parse time: core.New panics on it, and the service plane feeds
		// client-supplied specs straight here.
		{"use:64x3", "not divisible"},
		{"lru:10x4", "not divisible"},
		{"use:4x8", "more ways than entries"},
		{"use:1000000x2", "exceeds"},
		{"mono:100000", "latency"},
		{"use:64x2:rr:extra", "trailing fields"},
		{"use:64x2:b0", "backing latency must be >= 1"},
		{"lru", "needs a geometry"},
		{"nb:64x2:junk", "unknown index scheme"},
		{"twolevel", "needs an L1 size"},
		{"twolevel:big", "bad two-level L1 size"},
		{"twolevel:96:slow", "bad two-level L2 latency"},
		{"twolevel:96:2:junk", "trailing fields"},
		// Port-filtering family.
		{"port", "needs a geometry"},
		{"port:64x2:p0", "read-port count must be >= 1"},
		{"use:64x2:p999", "read ports"},        // Validate bound
		{"mono:3:p2", "requires a cache kind"}, // ports on a portless kind
		{"twolevel:96:p2", "requires a cache kind"},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			s, err := ParseSchemeSpec(tc.spec)
			if err == nil {
				t.Fatalf("ParseSchemeSpec(%q) = %+v, want error containing %q", tc.spec, s, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseSchemeSpec(%q) error %q, want substring %q", tc.spec, err, tc.wantErr)
			}
		})
	}
}

// TestParseSchemeSpecErrorPositions: parse errors name the offending token
// and its 1-based field position, so a bad spec inside a large sweep
// request pinpoints its own typo.
func TestParseSchemeSpecErrorPositions(t *testing.T) {
	cases := []struct {
		spec    string
		wantLoc string // the `field N ("tok")` fragment
	}{
		{"mono:zero", `field 2 ("zero")`},
		{"mono:3:junk", `field 3 ("junk")`},
		{"use:64y2", `field 2 ("64y2")`},
		{"use:64x2:bogusindex", `field 3 ("bogusindex")`},
		{"use:64x2:rr:extra", `field 4 ("extra")`},
		{"twolevel:big", `field 2 ("big")`},
		{"twolevel:96:slow", `field 3 ("slow")`},
		{"twolevel:96:2:junk", `field 4 ("junk")`},
		{"port:64x2:p0", `field 3 ("p0")`},
		{"use:64x2:preg:b0", `field 4 ("b0")`},
		{"bogus", `field 1 ("bogus")`},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			_, err := ParseSchemeSpec(tc.spec)
			if err == nil {
				t.Fatalf("ParseSchemeSpec(%q): want error locating %s", tc.spec, tc.wantLoc)
			}
			if !strings.Contains(err.Error(), tc.wantLoc) {
				t.Errorf("ParseSchemeSpec(%q) error %q, want location %s", tc.spec, err, tc.wantLoc)
			}
		})
	}
}

func TestParseIndexSchemeAliases(t *testing.T) {
	for name, want := range map[string]core.IndexScheme{
		"preg":        core.IndexPReg,
		"rr":          core.IndexRoundRobin,
		"round-robin": core.IndexRoundRobin,
		"roundrobin":  core.IndexRoundRobin,
		"min":         core.IndexMinimum,
		"minimum":     core.IndexMinimum,
		"filtered":    core.IndexFilteredRR,
		"frr":         core.IndexFilteredRR,
	} {
		got, err := ParseIndexScheme(name)
		if err != nil {
			t.Errorf("ParseIndexScheme(%q): %v", name, err)
		} else if got != want {
			t.Errorf("ParseIndexScheme(%q) = %v, want %v", name, got, want)
		}
	}
	if _, err := ParseIndexScheme("lru"); err == nil {
		t.Errorf("ParseIndexScheme(\"lru\") succeeded, want error")
	}
}

// TestSchemeRecordRoundTrip proves a results file's scheme block can be
// resubmitted verbatim: Scheme -> NewSchemeRecord -> ToScheme must be the
// identity for every scheme in the default matrix (plus modifiers).
func TestSchemeRecordRoundTrip(t *testing.T) {
	schemes := append(DefaultMatrix(),
		UseBased(64, 2, core.IndexFilteredRR).WithOracle(),
		UseBased(64, 2, core.IndexRoundRobin).WithBacking(7),
	)
	for _, s := range schemes {
		got, err := NewSchemeRecord(s).ToScheme()
		if err != nil {
			t.Fatalf("%s: ToScheme: %v", s.Name, err)
		}
		if got != s {
			t.Errorf("%s: round-trip = %+v, want %+v", s.Name, got, s)
		}
	}
}

func TestSchemeRecordToSchemeErrors(t *testing.T) {
	cacheKind := pipeline.SchemeCache.String()
	twoKind := pipeline.SchemeTwoLevel.String()
	cacheRec := func(c core.Config) SchemeRecord {
		return SchemeRecord{Name: "x", Kind: cacheKind, Cache: &c}
	}
	cases := []struct {
		name string
		rec  SchemeRecord
	}{
		{"unknown kind", SchemeRecord{Name: "x", Kind: "hybrid"}},
		{"cache without config", SchemeRecord{Name: "x", Kind: cacheKind}},
		{"two-level without config", SchemeRecord{Name: "x", Kind: twoKind}},
		{"empty name", SchemeRecord{Kind: pipeline.SchemeMonolithic.String()}},
		// Records arrive from arbitrary clients; configurations that would
		// panic core.New or the pipeline must be rejected here.
		{"negative entries", cacheRec(core.Config{Entries: -8, Ways: 2})},
		{"entries not divisible by ways", cacheRec(core.Config{Entries: 64, Ways: 3})},
		{"oversized entries", cacheRec(core.Config{Entries: 1 << 30, Ways: 2})},
		{"undersized preg space", cacheRec(core.Config{Entries: 64, Ways: 2, MaxPRegs: 4})},
		{"oversized preg space", cacheRec(core.Config{Entries: 64, Ways: 2, MaxPRegs: 1 << 30})},
		{"negative max use", cacheRec(core.Config{Entries: 64, Ways: 2, MaxUse: -1})},
		{"max use overflows uint8", cacheRec(core.Config{Entries: 64, Ways: 2, MaxUse: 300})},
		{"unknown insert policy", cacheRec(core.Config{Entries: 64, Ways: 2, Insert: 99})},
		{"unknown replace policy", cacheRec(core.Config{Entries: 64, Ways: 2, Replace: 99})},
		{"unknown index scheme", cacheRec(core.Config{Entries: 64, Ways: 2, Index: 99})},
		{"negative rf latency", SchemeRecord{Name: "x", Kind: pipeline.SchemeMonolithic.String(), RFLatency: -3}},
		{"negative backing latency", SchemeRecord{Name: "x", Kind: cacheKind, BackingLatency: -1,
			Cache: &core.Config{Entries: 64, Ways: 2}}},
		{"negative two-level L1", SchemeRecord{Name: "x", Kind: twoKind,
			TwoLevel: &twolevel.Config{L1Entries: -96}}},
		{"negative two-level latency", SchemeRecord{Name: "x", Kind: twoKind,
			TwoLevel: &twolevel.Config{L1Entries: 96, L2Latency: -2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if s, err := tc.rec.ToScheme(); err == nil {
				t.Errorf("ToScheme(%+v) = %+v, want error", tc.rec, s)
			}
		})
	}
}

// TestValidateAcceptsBuilders pins that every scheme the package's own
// builders produce (the whole default matrix plus modifiers) passes
// Validate — the wire-side check must never reject legitimate sweeps.
func TestValidateAcceptsBuilders(t *testing.T) {
	schemes := append(DefaultMatrix(),
		UseBased(16, 0, core.IndexMinimum), // fully associative
		UseBased(64, 2, core.IndexFilteredRR).WithOracle().WithBacking(5),
	)
	for _, s := range schemes {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", s.Name, err)
		}
	}
}

// TestDefaultMatrixDistinctNames guards the sweep matrix itself: names are
// the identity the service reports, so duplicates would silently merge
// sweep rows.
func TestDefaultMatrixDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range DefaultMatrix() {
		if s.Name == "" {
			t.Errorf("scheme %+v has no name", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate scheme name %q in DefaultMatrix", s.Name)
		}
		seen[s.Name] = true
		if spec, err := ParseSchemeSpec(specFor(t, s)); err == nil && spec != s {
			t.Errorf("spec round-trip for %q = %+v, want %+v", s.Name, spec, s)
		}
	}
}

// specFor reconstructs a compact spec for the matrix schemes (all of which
// are expressible in the grammar).
func specFor(t *testing.T, s Scheme) string {
	t.Helper()
	switch s.Kind {
	case pipeline.SchemeMonolithic:
		return "mono:" + itoa(s.RFLatency)
	case pipeline.SchemeTwoLevel:
		return "twolevel:" + itoa(s.TwoLevel.L1Entries) + ":" + itoa(s.TwoLevel.L2Latency)
	case pipeline.SchemeCache:
		kind := "use"
		if strings.HasPrefix(s.Name, "lru") {
			kind = "lru"
		} else if strings.HasPrefix(s.Name, "nb") || strings.HasPrefix(s.Name, "nonbypass") {
			kind = "nb"
		}
		idx := map[core.IndexScheme]string{
			core.IndexPReg:       "preg",
			core.IndexRoundRobin: "rr",
			core.IndexMinimum:    "min",
			core.IndexFilteredRR: "filtered",
		}[s.Cache.Index]
		return kind + ":" + itoa(s.Cache.Entries) + "x" + itoa(s.Cache.Ways) + ":" + idx
	}
	t.Fatalf("unexpected scheme kind %v", s.Kind)
	return ""
}

func itoa(n int) string { return strconv.Itoa(n) }
