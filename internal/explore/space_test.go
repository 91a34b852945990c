package explore

import (
	"errors"
	"strings"
	"testing"
)

func listAxis(vs ...int) Axis { return Axis{Values: vs} }

func TestAxisExpansion(t *testing.T) {
	r := Axis{Min: 8, Max: 64, Step: 8}
	if err := r.validate("entries", 1); err != nil {
		t.Fatal(err)
	}
	want := []int{8, 16, 24, 32, 40, 48, 56, 64}
	got := r.expand()
	if len(got) != len(want) || r.count() != len(want) {
		t.Fatalf("range expanded to %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range expanded to %v, want %v", got, want)
		}
	}
	// A range whose step overshoots max still includes min.
	one := Axis{Min: 16, Max: 20, Step: 8}
	if err := one.validate("entries", 1); err != nil {
		t.Fatal(err)
	}
	if got := one.expand(); len(got) != 1 || got[0] != 16 {
		t.Fatalf("overshooting step expanded to %v", got)
	}
}

func TestAxisValidation(t *testing.T) {
	cases := []struct {
		name string
		axis Axis
		min  int
		frag string // expected error fragment; "" = valid
	}{
		{"values ok", listAxis(16, 32), 1, ""},
		{"ways zero ok", listAxis(0, 2), 0, ""},
		{"empty", Axis{}, 1, "needs values or"},
		{"both forms", Axis{Values: []int{8}, Min: 1, Max: 2, Step: 1}, 1, "not both"},
		{"zero step", Axis{Min: 8, Max: 64}, 1, "step must be"},
		{"negative step", Axis{Min: 8, Max: 64, Step: -4}, 1, "step must be"},
		{"inverted", Axis{Min: 64, Max: 8, Step: 8}, 1, "inverted range"},
		{"below min", listAxis(0, 16), 1, "out of range"},
		{"duplicate", listAxis(16, 16), 1, "duplicate value"},
		{"huge range", Axis{Min: 1, Max: 1 << 19, Step: 1}, 1, "bound is"},
	}
	for _, tc := range cases {
		err := tc.axis.validate("ax", tc.min)
		if tc.frag == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %v, want fragment %q", tc.name, err, tc.frag)
		}
	}
	// An over-long axis is an over-budget space, not a malformed request.
	if err := (Axis{Min: 1, Max: 1000, Step: 1}).validate("ax", 1); !errors.Is(err, ErrSpaceTooLarge) {
		t.Errorf("over-long axis: %v, want ErrSpaceTooLarge", err)
	}
}

func TestSpecValidate(t *testing.T) {
	base := Spec{Space: Space{Entries: listAxis(16, 32), Ways: listAxis(1, 2)}}
	if err := base.WithDefaults().Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}

	bad := []struct {
		name string
		mut  func(*Spec)
		frag string
	}{
		{"strategy", func(s *Spec) { s.Strategy = "anneal" }, "unknown strategy"},
		{"eta low", func(s *Spec) { s.Strategy = StrategyHalving; s.Eta = 1 }, "eta 1 out of range"},
		{"eta high", func(s *Spec) { s.Strategy = StrategyHalving; s.Eta = 99 }, "eta 99 out of range"},
		{"kind", func(s *Spec) { s.Space.Kinds = []string{"use", "fifo"} }, "unknown policy"},
		{"index", func(s *Spec) { s.Space.Index = []string{"hash"} }, "unknown policy"},
		{"dup kind", func(s *Spec) { s.Space.Kinds = []string{"use", "use"} }, "duplicate policy"},
		{"insts", func(s *Spec) { s.Insts = 1 << 50 }, "budget bound"},
	}
	for _, tc := range bad {
		s := base
		tc.mut(&s)
		err := s.WithDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %v, want fragment %q", tc.name, err, tc.frag)
		}
	}

	// The candidate-product bound maps to ErrSpaceTooLarge even when each
	// axis is individually legal.
	big := Spec{Space: Space{
		Entries: Axis{Min: 1, Max: 64, Step: 1},
		Ways:    Axis{Min: 0, Max: 63, Step: 1},
		Kinds:   []string{"use", "lru", "nb"},
	}}
	if err := big.WithDefaults().Validate(); !errors.Is(err, ErrSpaceTooLarge) {
		t.Errorf("oversized product: %v, want ErrSpaceTooLarge", err)
	}
}

func TestCandidatesEnumeration(t *testing.T) {
	s := Spec{Space: Space{
		Entries: listAxis(16, 32),
		Ways:    listAxis(1, 2, 3), // 3 does not divide 16 or 32: skipped
		Kinds:   []string{"use", "lru"},
		Index:   []string{"preg", "filtered"},
	}}.WithDefaults()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cands, skipped, err := s.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	// 2 kinds × 2 entries × {1,2} ways × 2 indexes survive; ways=3 is
	// geometry-invalid for both entry counts under both kinds.
	if len(cands) != 16 || skipped != 8 {
		t.Fatalf("got %d candidates, %d skipped; want 16 and 8", len(cands), skipped)
	}
	names := make(map[string]bool)
	for _, c := range cands {
		if err := c.Scheme.Validate(); err != nil {
			t.Errorf("candidate %s invalid: %v", c.Scheme.Name, err)
		}
		if names[c.Scheme.Name] {
			t.Errorf("duplicate candidate %s", c.Scheme.Name)
		}
		names[c.Scheme.Name] = true
	}
	if !names["use-16x2-preg"] || !names["lru-32x1-filtered"] {
		t.Errorf("expected candidates missing from %v", names)
	}

	// Optional axes extend the name so every candidate stays unique, and
	// values below the machine's register count are skipped as invalid.
	s2 := Spec{Space: Space{
		Entries:  listAxis(16),
		Ways:     listAxis(2),
		MaxPRegs: &Axis{Values: []int{256, 512, 1024}},
		MaxUse:   &Axis{Values: []int{3, 7}},
	}}.WithDefaults()
	cands2, skipped2, err := s2.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands2) != 4 || skipped2 != 2 { // 256 < NumPRegs: both max_use variants skipped
		t.Fatalf("got %d candidates, %d skipped; want 4 and 2", len(cands2), skipped2)
	}
	want := "use-16x2-filtered-p512-u3"
	found := false
	for _, c := range cands2 {
		if c.Scheme.Name == want {
			found = true
			if c.Scheme.Cache.MaxPRegs != 512 || c.Scheme.Cache.MaxUse != 3 {
				t.Errorf("%s: axes not applied: %+v", want, c.Scheme.Cache)
			}
		}
	}
	if !found {
		t.Errorf("candidate %q missing", want)
	}

	// An all-invalid space errors rather than returning an empty search.
	bad := Spec{Space: Space{Entries: listAxis(16), Ways: listAxis(5)}}.WithDefaults()
	if _, _, err := bad.Candidates(); err == nil {
		t.Error("all-invalid space did not error")
	}
}

func TestPortsAndThreadsAxes(t *testing.T) {
	s := Spec{Space: Space{
		Entries: listAxis(16),
		Ways:    listAxis(2),
		Ports:   &Axis{Values: []int{0, 2}},
		Threads: &Axis{Values: []int{1, 4}},
	}}.WithDefaults()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cands, skipped, err := s.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 4 || skipped != 0 {
		t.Fatalf("got %d candidates, %d skipped; want 4 and 0", len(cands), skipped)
	}
	byName := make(map[string]Candidate, len(cands))
	for _, c := range cands {
		byName[c.Scheme.Name] = c
	}
	// Port 0 keeps the unsuffixed default name; thread counts always
	// suffix when the axis is present (including the T=1 baseline).
	for name, want := range map[string]struct {
		ports, threads int
	}{
		"use-16x2-filtered-t1":    {0, 1},
		"use-16x2-filtered-t4":    {0, 4},
		"use-16x2-filtered-p2-t1": {2, 1},
		"use-16x2-filtered-p2-t4": {2, 4},
	} {
		c, ok := byName[name]
		if !ok {
			t.Errorf("candidate %q missing from %v", name, byName)
			continue
		}
		if c.Scheme.ReadPorts != want.ports || c.Threads != want.threads {
			t.Errorf("%s: ports %d threads %d, want %d and %d",
				name, c.Scheme.ReadPorts, c.Threads, want.ports, want.threads)
		}
	}

	// Out-of-bounds axis values are validation errors, not enumeration
	// surprises.
	for _, tc := range []struct {
		name string
		mut  func(*Spec)
		frag string
	}{
		{"threads over machine bound", func(s *Spec) { s.Space.Threads = &Axis{Values: []int{1, 9}} }, "machine bound"},
		{"threads zero", func(s *Spec) { s.Space.Threads = &Axis{Values: []int{0}} }, "out of range"},
		{"ports over bound", func(s *Spec) { s.Space.Ports = &Axis{Values: []int{128}} }, "port bound"},
	} {
		bad := Spec{Space: Space{Entries: listAxis(16), Ways: listAxis(2)}}
		tc.mut(&bad)
		err := bad.WithDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %v, want fragment %q", tc.name, err, tc.frag)
		}
	}
}

func TestCostModel(t *testing.T) {
	small, _, err := (Spec{Space: Space{Entries: listAxis(16), Ways: listAxis(2)}}).WithDefaults().Candidates()
	if err != nil {
		t.Fatal(err)
	}
	large, _, err := (Spec{Space: Space{Entries: listAxis(64), Ways: listAxis(2)}}).WithDefaults().Candidates()
	if err != nil {
		t.Fatal(err)
	}
	cs, cl := Cost(small[0].Scheme), Cost(large[0].Scheme)
	if cs <= 0 || cl <= 0 || cl <= cs {
		t.Fatalf("cost not increasing in entries: %v vs %v", cs, cl)
	}
	// A wider decoupled tag space costs backing-file area.
	wide := small[0].Scheme
	wide.Cache.MaxPRegs = 2048
	if Cost(wide) <= cs {
		t.Error("larger MaxPRegs did not increase cost")
	}
	// The backing file is charged the read ports the pipeline simulates:
	// an unported scheme has one, so it costs exactly what its p1 twin
	// costs, and cost rises with every added port.
	if p1 := Cost(small[0].Scheme.WithPorts(1)); p1 != cs {
		t.Errorf("unported cost %v != 1-port cost %v: both simulate one backing read port", cs, p1)
	}
	prev := cs
	for _, n := range []int{2, 4, 8, 16} {
		c := Cost(small[0].Scheme.WithPorts(n))
		if c <= prev {
			t.Errorf("cost not increasing in ports: %d ports cost %v, fewer cost %v", n, c, prev)
		}
		prev = c
	}
}
