package prog

import (
	"reflect"
	"testing"

	"regcache/internal/isa"
)

// fuzzProfile maps raw fuzz bytes onto a structurally valid Profile. The
// point of the sanitization is to explore the *interesting* space — any
// seed, any weight mix, footprints from 1KiB to 16MiB, degenerate
// single-function programs — while keeping fields inside their documented
// domains (the generator's contract starts at a well-formed profile, not
// arbitrary garbage).
func fuzzProfile(seed uint64, funcs, foot, trip, depth, ways, wsel, randCond, chase byte) Profile {
	w := func(bit uint) float64 {
		if wsel&(1<<bit) != 0 {
			return 1 + float64(bit)
		}
		return 0.1 // keep every segment kind reachable
	}
	return Profile{
		Name: "fuzz", Seed: seed,
		Funcs:         1 + int(funcs%32),
		MeanTrip:      1 + int(trip%48),
		MaxTrip:       4 + 4*int(trip%48),
		MaxLoopDepth:  1 + int(depth%3),
		VarTripFrac:   float64(depth%8) / 8,
		WStraight:     w(0),
		WLoop:         w(1),
		WDiamond:      w(2),
		WCall:         w(3),
		WSwitch:       w(4) / 4,
		RandomCond:    float64(randCond) / 255,
		PointerChase:  float64(chase) / 255,
		FootprintLog2: 10 + int(foot%15),
		SwitchWays:    2 + int(ways%14),
	}
}

// FuzzProgramGenerate drives the program generator with arbitrary profiles
// and asserts the contract every downstream consumer depends on: the
// program validates, the entry instruction exists, functional execution
// stays on the code image for a nontrivial budget, and regeneration from
// the same profile is bit-identical (workload determinism is what makes
// the service plane's request coalescing sound).
func FuzzProgramGenerate(f *testing.F) {
	// Seeds spanning the corners: tiny, default-ish, call-heavy, loop-heavy,
	// maximal footprint, switch-heavy.
	f.Add(uint64(1), byte(0), byte(0), byte(0), byte(0), byte(0), byte(0), byte(0), byte(0))
	f.Add(uint64(0x67a1), byte(7), byte(6), byte(23), byte(1), byte(2), byte(0x0f), byte(30), byte(5))
	f.Add(uint64(0x9cc3), byte(27), byte(9), byte(4), byte(1), byte(6), byte(0x08), byte(64), byte(25))
	f.Add(uint64(0x3cf4), byte(6), byte(12), byte(15), byte(2), byte(0), byte(0x02), byte(76), byte(115))
	f.Add(uint64(0xbe58), byte(19), byte(14), byte(5), byte(0), byte(13), byte(0x10), byte(71), byte(30))
	f.Add(uint64(0xffffffffffffffff), byte(255), byte(255), byte(255), byte(255), byte(255), byte(255), byte(255), byte(255))
	f.Fuzz(func(t *testing.T, seed uint64, funcs, foot, trip, depth, ways, wsel, randCond, chase byte) {
		p := fuzzProfile(seed, funcs, foot, trip, depth, ways, wsel, randCond, chase)
		prog, err := Generate(p)
		if err != nil {
			t.Fatalf("Generate(%+v): %v", p, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("generated program fails validation: %v", err)
		}
		if prog.NumInsts() == 0 {
			t.Fatalf("generated program is empty")
		}
		if prog.InstAt(prog.Entry()) == nil {
			t.Fatalf("no instruction at entry %#x", prog.Entry())
		}

		// Functional execution must stay on the code image: every PC the
		// executor lands on resolves to a real instruction, and every branch
		// lands where the instruction said it would.
		e := NewExec(prog)
		const budget = 4096
		for i := 0; i < budget; i++ {
			in := prog.InstAt(e.PC())
			if in == nil {
				t.Fatalf("step %d: execution fell off code at %#x", i, e.PC())
			}
			s := e.StepInst(in)
			if s.NextPC != e.PC() {
				t.Fatalf("step %d: Step.NextPC %#x disagrees with executor PC %#x", i, s.NextPC, e.PC())
			}
			if in.Op == isa.OpStore && s.MemAddr%8 != 0 {
				t.Fatalf("step %d: unaligned store address %#x", i, s.MemAddr)
			}
		}

		// Regeneration is bit-identical, instruction by instruction.
		again, err := Generate(p)
		if err != nil {
			t.Fatalf("second Generate(%+v): %v", p, err)
		}
		if again.NumInsts() != prog.NumInsts() {
			t.Fatalf("regeneration changed size: %d vs %d insts", prog.NumInsts(), again.NumInsts())
		}
		for pc := prog.Entry(); ; pc += isa.InstBytes {
			a, b := prog.InstAt(pc), again.InstAt(pc)
			if a == nil && b == nil {
				break
			}
			if a == nil || b == nil || *a != *b {
				t.Fatalf("regeneration differs at %#x: %v vs %v", pc, a, b)
			}
		}

		// And so is re-execution: the first steps of a fresh executor replay
		// the same architectural trace.
		e1, e2 := NewExec(prog), NewExec(again)
		for i := 0; i < 256; i++ {
			s1, s2 := e1.step(), e2.step()
			s1.Inst, s2.Inst = nil, nil // compare values, not pointers
			if s1 != s2 {
				t.Fatalf("step %d: execution diverged: %+v vs %+v", i, s1, s2)
			}
		}

		// Multithreaded workload derivation: context 0 is the identity, and
		// any other context yields a distinct but equally well-formed and
		// deterministic program (the contract the sweep plane's per-thread
		// stream generation relies on).
		if tp := ThreadProfile(p, 0); !reflect.DeepEqual(tp, p) {
			t.Fatalf("ThreadProfile(p, 0) is not the identity: %+v", tp)
		}
		tid := 1 + int(funcs%3)
		tp := ThreadProfile(p, tid)
		if tp.Seed == p.Seed {
			t.Fatalf("ThreadProfile(p, %d) did not salt the seed", tid)
		}
		tprog, err := Generate(tp)
		if err != nil {
			t.Fatalf("Generate(ThreadProfile(p, %d)): %v", tid, err)
		}
		if err := tprog.Validate(); err != nil {
			t.Fatalf("thread-%d program fails validation: %v", tid, err)
		}
		tagain, err := Generate(ThreadProfile(p, tid))
		if err != nil {
			t.Fatalf("second Generate(ThreadProfile(p, %d)): %v", tid, err)
		}
		if tprog.NumInsts() != tagain.NumInsts() {
			t.Fatalf("thread-%d regeneration changed size: %d vs %d insts",
				tid, tprog.NumInsts(), tagain.NumInsts())
		}
	})
}
