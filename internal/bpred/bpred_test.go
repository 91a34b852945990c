package bpred

import (
	"testing"

	"regcache/internal/prog"
)

// train runs pc through predict+train n times with the given outcome
// pattern function, returning the accuracy over the final quarter.
func measure(t *testing.T, y *YAGS, pc uint64, n int, outcome func(i int) bool) float64 {
	t.Helper()
	correct, counted := 0, 0
	for i := 0; i < n; i++ {
		h := y.History()
		pred := y.Predict(pc)
		act := outcome(i)
		y.UpdateHistory(act) // non-speculative harness: perfect history
		y.Train(pc, h, act)
		if i >= 3*n/4 {
			counted++
			if pred == act {
				correct++
			}
		}
	}
	return float64(correct) / float64(counted)
}

func TestYAGSAlwaysTaken(t *testing.T) {
	y := NewYAGS(YAGSConfig{})
	if acc := measure(t, y, 0x1000, 400, func(int) bool { return true }); acc < 0.99 {
		t.Errorf("always-taken accuracy %.2f, want ~1.0", acc)
	}
}

func TestYAGSAlwaysNotTaken(t *testing.T) {
	y := NewYAGS(YAGSConfig{})
	if acc := measure(t, y, 0x1000, 400, func(int) bool { return false }); acc < 0.99 {
		t.Errorf("always-not-taken accuracy %.2f, want ~1.0", acc)
	}
}

func TestYAGSAlternating(t *testing.T) {
	// A strict alternation is trivially captured by 12 bits of history.
	y := NewYAGS(YAGSConfig{})
	if acc := measure(t, y, 0x2000, 2000, func(i int) bool { return i%2 == 0 }); acc < 0.95 {
		t.Errorf("alternating accuracy %.2f, want >= 0.95", acc)
	}
}

func TestYAGSLoopPattern(t *testing.T) {
	// Taken 7 times, not-taken once (8-iteration loop): history-correlated.
	y := NewYAGS(YAGSConfig{})
	if acc := measure(t, y, 0x3000, 4000, func(i int) bool { return i%8 != 7 }); acc < 0.9 {
		t.Errorf("loop-exit accuracy %.2f, want >= 0.9", acc)
	}
}

func TestYAGSHistoryMask(t *testing.T) {
	y := NewYAGS(YAGSConfig{HistoryBits: 4})
	for i := 0; i < 100; i++ {
		y.UpdateHistory(true)
	}
	if y.History() != 0xf {
		t.Errorf("history = %#x, want 0xf after masking", y.History())
	}
	y.SetHistory(0x3)
	if y.History() != 0x3 {
		t.Error("SetHistory failed")
	}
}

func TestYAGSSeparatesAliasedBranches(t *testing.T) {
	// Two branches with opposite fixed behaviour: the tagged exception
	// caches must keep them separate even with shared history.
	y := NewYAGS(YAGSConfig{})
	for i := 0; i < 500; i++ {
		for _, b := range []struct {
			pc    uint64
			taken bool
		}{{0x4000, true}, {0x4004, false}} {
			h := y.History()
			y.UpdateHistory(b.taken)
			y.Train(b.pc, h, b.taken)
		}
	}
	if !y.Predict(0x4000) {
		t.Error("branch at 0x4000 should predict taken")
	}
	if y.Predict(0x4004) {
		t.Error("branch at 0x4004 should predict not-taken")
	}
}

func TestIndirectMonomorphic(t *testing.T) {
	ip := NewIndirect(IndirectConfig{})
	pc, target := uint64(0x5000), uint64(0x9000)
	if _, ok := ip.Predict(pc); ok {
		t.Fatal("cold predictor should not predict")
	}
	ip.Train(pc, ip.Path(), target)
	got, ok := ip.Predict(pc)
	if !ok || got != target {
		t.Fatalf("predict = %#x,%v, want %#x", got, ok, target)
	}
}

func TestIndirectPolymorphic(t *testing.T) {
	// Target alternates with path history: stage 2 should capture it.
	ip := NewIndirect(IndirectConfig{})
	pc := uint64(0x6000)
	targets := []uint64{0x9000, 0x9100}
	// Distinct path histories precede each target.
	correct, total := 0, 0
	for i := 0; i < 3000; i++ {
		which := i % 2
		ip.SetPath(uint64(0x10 + which*0x20))
		want := targets[which]
		got, ok := ip.Predict(pc)
		if i > 2000 {
			total++
			if ok && got == want {
				correct++
			}
		}
		ip.Train(pc, ip.Path(), want)
	}
	if acc := float64(correct) / float64(total); acc < 0.95 {
		t.Errorf("polymorphic accuracy %.2f, want >= 0.95", acc)
	}
}

func TestRASBalanced(t *testing.T) {
	r := NewRAS(64)
	for depth := 1; depth <= 32; depth++ {
		for i := 0; i < depth; i++ {
			r.Push(uint64(0x1000 + i*4))
		}
		for i := depth - 1; i >= 0; i-- {
			got, ok := r.Pop()
			if !ok || got != uint64(0x1000+i*4) {
				t.Fatalf("depth %d: pop %d = %#x,%v", depth, i, got, ok)
			}
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS should not pop")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(4)
	for i := 0; i < 6; i++ {
		r.Push(uint64(i))
	}
	// Only the last 4 survive; pops yield 5,4,3,2 then fail.
	for want := 5; want >= 2; want-- {
		got, ok := r.Pop()
		if !ok || got != uint64(want) {
			t.Fatalf("pop = %d,%v, want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("RAS should be empty after wrap-around pops")
	}
}

func TestRASMarkRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(0xa)
	top, depth := r.Mark()
	r.Push(0xb)
	r.Push(0xc)
	r.Restore(top, depth)
	got, ok := r.Pop()
	if !ok || got != 0xa {
		t.Fatalf("after restore, pop = %#x,%v, want 0xa", got, ok)
	}
}

// End-to-end sanity: YAGS accuracy on real generated workloads should be
// high (the suite is mostly loop branches plus profile-controlled random
// conditions).
func TestYAGSOnGeneratedWorkload(t *testing.T) {
	for _, name := range []string{"gzip", "twolf"} {
		prof, _ := prog.ProfileByName(name)
		p, err := prog.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		e := prog.NewExec(p)
		y := NewYAGS(YAGSConfig{})
		correct, total := 0, 0
		for i := 0; i < 150_000; i++ {
			in := p.InstAt(e.PC())
			if in == nil {
				t.Fatalf("%s: fell off code", name)
			}
			s := e.StepInst(in)
			if in.Op.IsCond() {
				h := y.History()
				pred := y.Predict(in.PC)
				y.UpdateHistory(s.Taken)
				y.Train(in.PC, h, s.Taken)
				total++
				if pred == s.Taken {
					correct++
				}
			}
		}
		acc := float64(correct) / float64(total)
		min := 0.85
		if name == "twolf" {
			min = 0.70 // 40% random conditions
		}
		if acc < min {
			t.Errorf("%s: YAGS accuracy %.3f below %.2f", name, acc, min)
		}
		t.Logf("%s: YAGS accuracy %.3f over %d branches", name, acc, total)
	}
}
