package regfile

import (
	"math/rand"
	"testing"
	"testing/quick"

	"regcache/internal/core"
	"regcache/internal/isa"
)

func TestFreeListFIFO(t *testing.T) {
	f := NewFreeList(4)
	order := []core.PReg{}
	for {
		p, ok := f.Alloc()
		if !ok {
			break
		}
		order = append(order, p)
	}
	if len(order) != 4 {
		t.Fatalf("allocated %d, want 4", len(order))
	}
	for i, p := range order {
		if p != core.PReg(i) {
			t.Fatalf("allocation order %v not FIFO", order)
		}
	}
	f.Free(2)
	f.Free(0)
	if p, _ := f.Alloc(); p != 2 {
		t.Fatalf("expected FIFO reuse of preg 2, got %d", p)
	}
	if f.Len() != 1 {
		t.Fatalf("len = %d, want 1", f.Len())
	}
}

func TestMapTableRedefineAndRollback(t *testing.T) {
	mt := NewMapTable()
	r := isa.IntR(5)
	orig := mt.Lookup(r)
	tok := mt.Checkpoint()
	old := mt.Redefine(r, Mapping{PReg: 100, Set: 3})
	if old != orig {
		t.Fatal("Redefine returned wrong previous mapping")
	}
	if got := mt.Lookup(r); got.PReg != 100 || got.Set != 3 {
		t.Fatalf("Lookup after redefine = %+v", got)
	}
	mt.Redefine(r, Mapping{PReg: 101, Set: 4})
	mt.Redefine(isa.IntR(6), Mapping{PReg: 102, Set: 5})
	mt.Rollback(tok)
	if got := mt.Lookup(r); got != orig {
		t.Fatalf("rollback failed: %+v", got)
	}
	if got := mt.Lookup(isa.IntR(6)); got.PReg != core.PReg(isa.IntR(6).Index()) {
		t.Fatalf("rollback failed for r6: %+v", got)
	}
}

func TestMapTableCommitKeepsLaterTokens(t *testing.T) {
	mt := NewMapTable()
	mt.Redefine(isa.IntR(1), Mapping{PReg: 100})
	tokA := mt.Checkpoint()
	mt.Redefine(isa.IntR(2), Mapping{PReg: 101})
	tokB := mt.Checkpoint()
	mt.Redefine(isa.IntR(3), Mapping{PReg: 102})
	mt.Commit(tokA)
	mt.Rollback(tokB)
	if got := mt.Lookup(isa.IntR(3)); got.PReg == 102 {
		t.Fatal("rollback after commit failed to undo r3")
	}
	if got := mt.Lookup(isa.IntR(2)); got.PReg != 101 {
		t.Fatal("rollback after commit undid too much")
	}
}

// Property: any interleaving of redefines with one rollback restores the
// exact pre-checkpoint state.
func TestMapTableRollbackProperty(t *testing.T) {
	f := func(pre, post []uint8) bool {
		mt := NewMapTable()
		apply := func(ops []uint8) {
			for i, op := range ops {
				r := isa.IntR(int(op) % 30)
				mt.Redefine(r, Mapping{PReg: core.PReg(64 + i), Set: int16(op)})
			}
		}
		apply(pre)
		var snapshot [isa.NumArchRegs]Mapping
		for i := 0; i < isa.NumArchRegs; i++ {
			snapshot[i] = mt.Lookup(isa.Reg(i + 1))
		}
		tok := mt.Checkpoint()
		apply(post)
		mt.Rollback(tok)
		for i := 0; i < isa.NumArchRegs; i++ {
			if mt.Lookup(isa.Reg(i+1)) != snapshot[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBackingFileWriteInterlock(t *testing.T) {
	b := NewBackingFile(2, 16, 1)
	// Value finishes executing at cycle 10; its RF write completes at 12.
	b.NoteWrite(3, 10)
	// A read at cycle 11 must wait for the write, then take 2 cycles. The
	// interlock is not a port wait.
	if got, waited := b.Read(3, 11); got != 14 || waited != 0 {
		t.Fatalf("read ready at %d after %d port-wait cycles, want 14 (wait to 12 + 2) after 0", got, waited)
	}
	// A read of a long-written register goes immediately.
	if got, _ := b.Read(4, 20); got != 22 {
		t.Fatalf("read ready at %d, want 22", got)
	}
}

func TestBackingFilePortArbitration(t *testing.T) {
	b := NewBackingFile(2, 16, 1)
	r1, w1 := b.Read(1, 10)
	r2, w2 := b.Read(2, 10) // same cycle: must be delayed by the single port
	if r1 != 12 || r2 != 13 {
		t.Fatalf("reads ready at %d,%d, want 12,13", r1, r2)
	}
	if w1 != 0 || w2 != 1 {
		t.Fatalf("port waits %d,%d, want 0,1", w1, w2)
	}
	if b.Reads != 2 {
		t.Fatalf("Reads = %d, want 2", b.Reads)
	}
}

// TestBackingFileInterlockHoldsPort: a granted read that waits for its
// register's write keeps its port for the whole wait, so the next request
// of the same cycle waits for the port even though its own register is
// ready — unless a second port is free.
func TestBackingFileInterlockHoldsPort(t *testing.T) {
	for _, tc := range []struct {
		ports       int
		ready, wait uint64
	}{
		{1, 15, 2}, // the port frees at 13, the cycle after the interlocked start
		{2, 13, 0}, // the second port serves it at once
	} {
		b := NewBackingFile(2, 16, tc.ports)
		b.NoteWrite(3, 10) // write completes at 12
		if got, waited := b.Read(3, 11); got != 14 || waited != 0 {
			t.Fatalf("%d ports: interlocked read ready at %d after %d waits, want 14 after 0", tc.ports, got, waited)
		}
		if got, waited := b.Read(4, 11); got != tc.ready || waited != tc.wait {
			t.Errorf("%d ports: next same-cycle read ready at %d after %d waits, want %d after %d",
				tc.ports, got, waited, tc.ready, tc.wait)
		}
	}
}

// referenceGrants is the per-cycle FIFO port arbiter the backing file's
// port rule must reproduce: at the top of each cycle the oldest queued
// requests are granted, at most n per cycle; a request arriving in a cycle
// with a grant left starts at once, and otherwise joins the queue. Every
// request still queued after a cycle's grants is charged one stall cycle.
// It returns each request's grant cycle and the summed stall cycles.
func referenceGrants(arrivals []uint64, n int) (grants []uint64, stalls uint64) {
	grants = make([]uint64, len(arrivals))
	var queue []int
	next := 0
	for cycle := arrivals[0]; next < len(arrivals) || len(queue) > 0; cycle++ {
		used := 0
		for len(queue) > 0 && used < n {
			grants[queue[0]] = cycle
			queue = queue[1:]
			used++
		}
		stalls += uint64(len(queue))
		for ; next < len(arrivals) && arrivals[next] == cycle; next++ {
			if used < n {
				grants[next] = cycle
				used++
			} else {
				queue = append(queue, next)
				stalls++
			}
		}
	}
	return grants, stalls
}

// TestBackingFileMatchesFIFOReference: with every write complete before
// its read arrives, Read grants exactly what the per-cycle FIFO arbiter
// grants — N requests per cycle in arrival order — and charges the same
// request-cycles of port wait, for random bursty arrival streams.
func TestBackingFileMatchesFIFOReference(t *testing.T) {
	const latency, npregs = 2, 64
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4} {
		for trial := 0; trial < 300; trial++ {
			b := NewBackingFile(latency, npregs, n)
			arrivals := make([]uint64, 1+rng.Intn(200))
			now := uint64(10 + rng.Intn(10))
			var ready []uint64
			var waited uint64
			for i := range arrivals {
				if rng.Intn(3) == 0 {
					now += uint64(rng.Intn(4))
				}
				arrivals[i] = now
				p := core.PReg(rng.Intn(npregs))
				// The write of p completes at or before now.
				b.NoteWrite(p, now-uint64(latency)-uint64(rng.Intn(3)))
				r, w := b.Read(p, now)
				ready = append(ready, r)
				waited += w
			}
			grants, stalls := referenceGrants(arrivals, n)
			for i, g := range grants {
				if ready[i] != g+latency {
					t.Fatalf("%d ports, trial %d: request %d (arrival %d) ready at %d, reference grants %d (+%d latency)",
						n, trial, i, arrivals[i], ready[i], g, latency)
				}
			}
			if waited != stalls {
				t.Fatalf("%d ports, trial %d: Read charged %d wait cycles, reference %d", n, trial, waited, stalls)
			}
		}
	}
}

func TestLifetimePhases(t *testing.T) {
	l := NewLifetimes(8, false)
	l.Alloc(1, 100)
	l.Write(1, 110) // empty = 10
	l.Read(1, 115)
	l.Read(1, 130) // live = 20
	l.Free(1, 150) // dead = 20
	if l.Empty.Mean() != 10 || l.Live.Mean() != 20 || l.Dead.Mean() != 20 {
		t.Fatalf("phases = %v/%v/%v, want 10/20/20", l.Empty.Mean(), l.Live.Mean(), l.Dead.Mean())
	}
}

func TestLifetimeNeverReadAndNeverWritten(t *testing.T) {
	l := NewLifetimes(8, false)
	// Written but never read: live time 0, dead from write.
	l.Alloc(2, 10)
	l.Write(2, 12)
	l.Free(2, 20)
	if l.Live.Count(0) != 1 || l.Dead.Mean() != 8 {
		t.Fatal("never-read lifetime wrong")
	}
	// Never written (squashed writer): not recorded.
	l.Alloc(3, 30)
	l.Free(3, 40)
	if l.Empty.N() != 1 {
		t.Fatal("unwritten register should not be recorded")
	}
}

func TestLifetimeCountDistributions(t *testing.T) {
	l := NewLifetimes(8, true)
	// Two overlapping register lifetimes:
	// preg 1: alloc 0, write 2, reads to 8, free 10.
	// preg 2: alloc 4, write 5, reads to 6, free 12.
	l.Alloc(1, 0)
	l.Write(1, 2)
	l.Read(1, 8)
	l.Alloc(2, 4)
	l.Write(2, 5)
	l.Read(2, 6)
	l.Free(1, 10)
	l.Free(2, 12)
	l.Finish(16)
	alloc := l.AllocatedDist()
	// Allocated count: [0,4)=1, [4,10)=2, [10,12)=1, [12,16)=0.
	if alloc.Count(1) != 4+2 || alloc.Count(2) != 6 || alloc.Count(0) != 4 {
		t.Fatalf("allocated distribution wrong: c0=%d c1=%d c2=%d",
			alloc.Count(0), alloc.Count(1), alloc.Count(2))
	}
	live := l.LiveDist()
	// Live: [2,5)=1, [5,6)=2, [6,8)=1, else 0 over [2,16) window from first event.
	if live.Count(2) != 1 || live.Count(1) != 3+2 {
		t.Fatalf("live distribution wrong: c0=%d c1=%d c2=%d",
			live.Count(0), live.Count(1), live.Count(2))
	}
}
