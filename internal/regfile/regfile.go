// Package regfile provides the physical register infrastructure: the
// freelist, the rename map table (widened with a register cache set index
// for decoupled indexing, Section 4.1), the backing file timing model, and
// the register lifetime tracker behind Figures 1 and 2. The monolithic
// register file has no model here: the pipeline times it from its
// configured latency (the read-stage depth and the bypass hole).
package regfile

import (
	"fmt"

	"regcache/internal/core"
	"regcache/internal/isa"
)

// FreeList hands out physical registers. It is a FIFO, like real rename
// freelists, so register reuse distance is maximal. The FIFO is a fixed
// ring: at most n registers can ever be free at once, so Alloc and Free
// are allocation-free O(1) (the previous slice implementation re-sliced
// the head forward and reallocated on every append once the window
// reached the backing array's end).
type FreeList struct {
	ring  []core.PReg
	head  int // next register to hand out
	count int // registers currently free
}

// NewFreeList builds a freelist holding pregs 0..n-1.
func NewFreeList(n int) *FreeList {
	f := &FreeList{ring: make([]core.PReg, n), count: n}
	for i := range f.ring {
		f.ring[i] = core.PReg(i)
	}
	return f
}

// Alloc removes and returns the next free register, or ok=false when
// exhausted (rename must stall).
func (f *FreeList) Alloc() (core.PReg, bool) {
	if f.count == 0 {
		return -1, false
	}
	p := f.ring[f.head]
	f.head++
	if f.head == len(f.ring) {
		f.head = 0
	}
	f.count--
	return p, true
}

// Free returns a register to the pool.
func (f *FreeList) Free(p core.PReg) {
	if f.count == len(f.ring) {
		panic("regfile: freelist overflow (double free)")
	}
	tail := f.head + f.count
	if tail >= len(f.ring) {
		tail -= len(f.ring)
	}
	f.ring[tail] = p
	f.count++
}

// Len returns the number of free registers.
func (f *FreeList) Len() int { return f.count }

// Mapping is one rename-map entry: the physical register plus the register
// cache set assigned at rename (decoupled indexing widens the map table,
// Section 4.1). Set is meaningless under standard indexing.
type Mapping struct {
	PReg core.PReg
	Set  int16
}

// MapTable is the speculative rename map with undo-log rollback, mirroring
// the executor's checkpoint discipline: the pipeline records a token per
// instruction and rolls the table back on misprediction recovery.
type MapTable struct {
	maps [isa.NumArchRegs]Mapping
	log  []mapUndo
	head int // index of the first uncommitted record in log
	base int // virtual position of log[0]
}

type mapUndo struct {
	reg isa.Reg
	old Mapping
}

// NewMapTable builds a map table with every architectural register mapped
// to an identity physical register (pregs 0..63 hold the initial state).
func NewMapTable() *MapTable {
	t := &MapTable{}
	for i := 0; i < isa.NumArchRegs; i++ {
		t.maps[i] = Mapping{PReg: core.PReg(i), Set: -1}
	}
	return t
}

// Lookup returns the current mapping of r.
func (t *MapTable) Lookup(r isa.Reg) Mapping { return t.maps[r.Index()] }

// Redefine maps r to m and returns the previous mapping (whose physical
// register the defining instruction frees at retirement).
func (t *MapTable) Redefine(r isa.Reg, m Mapping) Mapping {
	old := t.maps[r.Index()]
	t.log = append(t.log, mapUndo{reg: r, old: old})
	t.maps[r.Index()] = m
	return old
}

// Checkpoint returns a rollback token (stable across Commit).
func (t *MapTable) Checkpoint() int { return t.base + len(t.log) }

// Rollback restores the table to the state at the token.
func (t *MapTable) Rollback(token int) {
	idx := token - t.base
	if idx < t.head || idx > len(t.log) {
		panic(fmt.Sprintf("regfile: bad map rollback token %d (base %d, head %d, log %d)", token, t.base, t.head, len(t.log)))
	}
	for i := len(t.log) - 1; i >= idx; i-- {
		u := t.log[i]
		t.maps[u.reg.Index()] = u.old
	}
	t.log = t.log[:idx]
}

// Commit discards undo history up to the token (instruction retired).
// Like Exec.Commit, it advances a head index and compacts amortizedly
// rather than copying the live tail on every retirement.
func (t *MapTable) Commit(token int) {
	idx := token - t.base
	if idx <= t.head {
		return
	}
	if idx > len(t.log) {
		idx = len(t.log)
	}
	t.head = idx
	if t.head >= 64 && t.head >= len(t.log)-t.head {
		n := copy(t.log, t.log[t.head:])
		t.log = t.log[:n]
		t.base += t.head
		t.head = 0
	}
}

// BackingFile models the backing register file behind a register cache:
// full write bandwidth, a small number of read ports (the paper's machine
// has one, shared with a write port), and a multi-cycle latency for both
// reads and writes (Section 2.2). Reads are interlocked against the
// in-flight write of the same register.
type BackingFile struct {
	latency   int
	writeDone []uint64 // per-preg cycle at which the RF write completes
	portFree  []uint64 // per read port: next cycle it can accept a request

	Reads  uint64
	Writes uint64
}

// NewBackingFile builds a backing file with the given read/write latency,
// physical register count and read-port count; a count below one gives
// the default single port.
func NewBackingFile(latency, npregs, ports int) *BackingFile {
	return &BackingFile{
		latency:   latency,
		writeDone: make([]uint64, npregs),
		portFree:  make([]uint64, max(1, ports)),
	}
}

// Latency returns the configured access latency.
func (b *BackingFile) Latency() int { return b.latency }

// NoteWrite records that p's value finished executing at cycle execEnd;
// the register file write occupies the following latency cycles.
func (b *BackingFile) NoteWrite(p core.PReg, execEnd uint64) {
	b.Writes++
	b.writeDone[p] = execEnd + uint64(b.latency)
}

// Read requests p at cycle now. Requests are served in arrival order on
// the port that frees first, one request per port per cycle. A granted
// read then waits for p's in-flight write to finish (Section 5.2: "the
// instruction may have to wait to ensure that the desired result has
// finished writing into the register file") and holds its port while it
// waits. Read returns the cycle the data is available and the cycles the
// request waited for a port (not counting the write interlock).
func (b *BackingFile) Read(p core.PReg, now uint64) (ready, waited uint64) {
	k := 0
	for i, f := range b.portFree {
		if f < b.portFree[k] {
			k = i
		}
	}
	start := max(now, b.portFree[k])
	waited = start - now
	start = max(start, b.writeDone[p])
	b.portFree[k] = start + 1
	b.Reads++
	return start + uint64(b.latency), waited
}
