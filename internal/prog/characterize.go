package prog

import (
	"fmt"
	"strings"

	"regcache/internal/isa"
	"regcache/internal/stats"
)

// Characterization summarizes the dynamic behaviour of a program over a
// bounded functional execution: operation mix, architectural degree-of-use
// distribution, branch statistics, and code-footprint. It validates that a
// generated workload has the statistical shape the study needs and powers
// cmd/tracegen.
type Characterization struct {
	Name          string
	Insts         uint64
	OpCounts      map[isa.Op]uint64
	DegreeOfUse   *stats.Histogram // reads per architectural definition
	CondBranches  uint64
	CondTaken     uint64
	StaticTouched int // distinct static instructions executed
	UniqueAddrs   int // distinct word addresses touched by loads/stores
}

// Characterize functionally executes the first n dynamic instructions and
// accumulates the summary. Degree of use is measured architecturally: the
// number of reads of each register definition before its redefinition.
func Characterize(p *Program, n uint64) *Characterization {
	c := &Characterization{
		Name:        p.Name,
		OpCounts:    make(map[isa.Op]uint64),
		DegreeOfUse: stats.NewHistogram(),
	}
	e := NewExec(p)
	reads := [isa.NumArchRegs]int{}
	defined := [isa.NumArchRegs]bool{}
	touched := make(map[uint64]struct{})
	addrs := make(map[uint64]struct{})
	for i := uint64(0); i < n; i++ {
		in := p.InstAt(e.PC())
		if in == nil {
			break
		}
		s := e.StepInst(in)
		e.Commit(e.Checkpoint()) // never rolled back: keep the undo log empty
		c.Insts++
		c.OpCounts[in.Op]++
		touched[in.PC] = struct{}{}
		for _, r := range [...]isa.Reg{in.Src1, in.Src2} {
			if r != isa.RegNone && !r.IsZeroReg() {
				reads[r.Index()]++
			}
		}
		if in.HasDest() {
			if defined[in.Dest.Index()] {
				c.DegreeOfUse.Add(reads[in.Dest.Index()])
			}
			reads[in.Dest.Index()] = 0
			defined[in.Dest.Index()] = true
		}
		if in.Op.IsCond() {
			c.CondBranches++
			if s.Taken {
				c.CondTaken++
			}
		}
		if in.Op.IsMem() {
			addrs[s.MemAddr] = struct{}{}
		}
	}
	c.StaticTouched = len(touched)
	c.UniqueAddrs = len(addrs)
	return c
}

// OpFrac returns the fraction of dynamic instructions with the given op.
func (c *Characterization) OpFrac(op isa.Op) float64 {
	if c.Insts == 0 {
		return 0
	}
	return float64(c.OpCounts[op]) / float64(c.Insts)
}

// SingleUseFrac returns the fraction of definitions consumed exactly once.
func (c *Characterization) SingleUseFrac() float64 {
	if c.DegreeOfUse.N() == 0 {
		return 0
	}
	return float64(c.DegreeOfUse.Count(1)) / float64(c.DegreeOfUse.N())
}

// String renders a human-readable report.
func (c *Characterization) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d insts, %d static, %d unique words\n",
		c.Name, c.Insts, c.StaticTouched, c.UniqueAddrs)
	fmt.Fprintf(&b, "  mix: load %.1f%% store %.1f%% ialu %.1f%% imul %.1f%% fp %.1f%% br %.1f%% jmp %.1f%% call %.1f%% ret %.1f%% ijmp %.1f%%\n",
		100*c.OpFrac(isa.OpLoad), 100*c.OpFrac(isa.OpStore), 100*c.OpFrac(isa.OpIAlu),
		100*c.OpFrac(isa.OpIMul),
		100*(c.OpFrac(isa.OpFAlu)+c.OpFrac(isa.OpFMul)+c.OpFrac(isa.OpFDiv)),
		100*c.OpFrac(isa.OpBranch), 100*c.OpFrac(isa.OpJump), 100*c.OpFrac(isa.OpCall),
		100*c.OpFrac(isa.OpRet), 100*c.OpFrac(isa.OpIndirect))
	taken := 0.0
	if c.CondBranches > 0 {
		taken = float64(c.CondTaken) / float64(c.CondBranches)
	}
	fmt.Fprintf(&b, "  cond branches: %.1f%% of insts, %.1f%% taken\n",
		100*c.OpFrac(isa.OpBranch), 100*taken)
	fmt.Fprintf(&b, "  degree of use: mean %.2f, P(0)=%.2f P(1)=%.2f P(2)=%.2f P(>=3)=%.2f\n",
		c.DegreeOfUse.Mean(),
		frac(c.DegreeOfUse, 0), frac(c.DegreeOfUse, 1), frac(c.DegreeOfUse, 2),
		tail(c.DegreeOfUse, 3))
	return b.String()
}

func frac(h *stats.Histogram, v int) float64 {
	if h.N() == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.N())
}

func tail(h *stats.Histogram, from int) float64 {
	if h.N() == 0 {
		return 0
	}
	var c uint64
	for v := from; v <= h.Max(); v++ {
		c += h.Count(v)
	}
	return float64(c) / float64(h.N())
}
