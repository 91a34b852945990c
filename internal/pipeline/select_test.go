package pipeline

// Tests for the event-driven select: it must choose exactly what a scan of
// the whole window would, every cycle, on every machine; every waiting
// entry must sit in exactly one place; and the timed wake must never come
// after the first cycle an operand can be read.

import (
	"fmt"
	"math/bits"
	"testing"

	"regcache/internal/core"
	"regcache/internal/isa"
)

// referenceSelect returns the uops a scan of the whole window, oldest slot
// first, selects this cycle: the issue stage as it was before select
// became event-driven, with its own copy of the operand-window
// arithmetic. It changes no state.
func referenceSelect(pl *Pipeline, dst []*uop) []*uop {
	dst = dst[:0]
	if pl.suppressIssue {
		return dst
	}
	var used [numFUClasses]int
	for _, e := range pl.iq {
		if len(dst) >= IssueWidth {
			break
		}
		u := e.u
		if u == nil || u.seq != e.seq || u.state != uInIQ {
			continue
		}
		cls := classOf(u.inst.Op)
		if used[cls] >= fuCap[cls] {
			continue
		}
		ready := true
		for i := range u.srcs {
			if !referenceAvailable(pl, &u.srcs[i], pl.now) {
				ready = false
			}
		}
		if ready {
			used[cls]++
			dst = append(dst, u)
		}
	}
	return dst
}

// referenceAvailable reports whether operand s can be obtained by a
// consumer issuing at cycle now: through bypass stage 1 or 2, or by a
// storage read that starts after the producer's write completes.
func referenceAvailable(pl *Pipeline, s *srcOp, now uint64) bool {
	if !s.isReal() {
		return true
	}
	p := s.producer
	if p == nil || p.seq != s.prodSeq || p.state == uRetired {
		return true
	}
	if p.state != uExecuting && p.state != uDone {
		return false
	}
	tP := p.effectiveResult(now)
	execStart := now + 1 + uint64(pl.readLat)
	if execStart == tP+1 || execStart == tP+2 {
		return true
	}
	if pl.cfg.Scheme == SchemeMonolithic {
		return now >= tP+uint64(pl.cfg.RFLatency)
	}
	return now >= tP+1
}

// stageIndex returns the position of the named stage in cycleStages.
func stageIndex(tb testing.TB, name string) int {
	for i := range cycleStages {
		if cycleStages[i].name == name {
			return i
		}
	}
	tb.Fatalf("no stage %q", name)
	return -1
}

// runCheckingSelect runs pl until n instructions retire, stepping the
// stage table by hand: before every issue stage it computes the reference
// selection, and after it requires the issued list to match. Every 64
// cycles it also checks the placement invariant.
func runCheckingSelect(t *testing.T, pl *Pipeline, n uint64) {
	t.Helper()
	if pl.cfg.OracleUses {
		for i := range pl.threads {
			pl.threads[i].oracle = BuildOracle(pl.threads[i].prog, n)
		}
	}
	issue := stageIndex(t, "issue")
	var want []*uop
	for pl.Stats.Retired < n {
		if pl.now > 40*n+200_000 {
			t.Fatalf("no progress: %d of %d retired by cycle %d", pl.Stats.Retired, n, pl.now)
		}
		pl.startCycle()
		for i := range cycleStages {
			if i == issue {
				want = referenceSelect(pl, want)
			}
			cycleStages[i].run(pl)
			if i == issue && !sameSelection(pl.issuedNow, want) {
				t.Fatalf("cycle %d: select issued %v, the window scan issues %v",
					pl.now, seqs(pl.issuedNow), seqs(want))
			}
		}
		if pl.now%64 == 0 {
			checkPlacement(t, pl)
		}
	}
}

func sameSelection(got, want []*uop) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func seqs(us []*uop) []uint64 {
	out := make([]uint64, len(us))
	for i, u := range us {
		out[i] = u.seq
	}
	return out
}

// checkPlacement asserts the select invariant: every uop waiting in the
// window is flagged, parked on one producer, or holds one timed wake —
// exactly one of the three.
func checkPlacement(t *testing.T, pl *Pipeline) {
	t.Helper()
	places := map[*uop]int{}
	count := func(head int32) {
		for i := head; i != 0; i = pl.nodes[i].next {
			if r := pl.nodes[i].ref; r.u.seq == r.seq && r.u.state == uInIQ {
				places[r.u]++
			}
		}
	}
	for _, head := range pl.wakeAt {
		count(head)
	}
	for ti := range pl.threads {
		tc := &pl.threads[ti]
		for k := 0; k < tc.robCount; k++ {
			count(tc.rob[(tc.robHead+k)%len(tc.rob)].parked)
		}
	}
	waiting := 0
	for pos, e := range pl.iq {
		u := e.u
		if u.seq != e.seq || u.state != uInIQ {
			continue
		}
		waiting++
		if int(u.iqPos) != pos {
			t.Fatalf("cycle %d: seq %d sits in slot %d but records slot %d", pl.now, u.seq, pos, u.iqPos)
		}
		if pl.ready[pos>>6]&(1<<(pos&63)) != 0 {
			places[u]++
		}
		if places[u] != 1 {
			t.Fatalf("cycle %d: waiting seq %d is in %d places, want exactly 1", pl.now, u.seq, places[u])
		}
	}
	inIQ := 0
	for ti := range pl.threads {
		tc := &pl.threads[ti]
		for k := 0; k < tc.robCount; k++ {
			if tc.rob[(tc.robHead+k)%len(tc.rob)].state == uInIQ {
				inIQ++
			}
		}
	}
	if waiting != inIQ {
		t.Fatalf("cycle %d: %d uops waiting in the ROB, %d reachable from window slots", pl.now, inIQ, waiting)
	}
}

// selectMachines is the machine matrix the equivalence test covers at
// threads contexts: the three cache policies, both monolithic latencies,
// the two-level file, the oracle use table, a one-port port-filtering
// cache and a slow backing file.
func selectMachines(threads int) []benchConfig {
	base := DefaultConfig()
	base.Threads = threads

	lru := base
	lru.CacheCfg = core.Config{Entries: 64, Ways: 2, Insert: core.InsertAlways,
		Replace: core.ReplaceLRU, Index: core.IndexRoundRobin, ClassifyMisses: true}
	nb := base
	nb.CacheCfg = core.Config{Entries: 64, Ways: 2, Insert: core.InsertNonBypass,
		Replace: core.ReplaceLRU, Index: core.IndexRoundRobin, ClassifyMisses: true}
	mono1 := base
	mono1.Scheme, mono1.RFLatency = SchemeMonolithic, 1
	mono3 := base
	mono3.Scheme, mono3.RFLatency = SchemeMonolithic, 3
	two := base
	two.Scheme = SchemeTwoLevel
	two.TwoLevelCfg.L1Entries = max(1, threads)*isa.NumArchRegs + 32
	two.TwoLevelCfg.L2Latency = 2
	oracle := base
	oracle.OracleUses = true
	port := base
	port.CacheCfg.Entries = 16
	port.ReadPorts = 1
	slow := base
	slow.BackingLatency = 5

	return []benchConfig{
		{"use", base}, {"lru", lru}, {"nb", nb}, {"mono1", mono1}, {"mono3", mono3},
		{"twolevel", two}, {"oracle", oracle}, {"port-p1", port}, {"b5", slow},
	}
}

// TestSelectMatchesWindowScan: across the machine matrix, T in {1, 2, 4}
// and three benchmarks, the event-driven select issues exactly the uops
// the whole-window scan would, in the same order, every cycle.
func TestSelectMatchesWindowScan(t *testing.T) {
	insts := uint64(6_000)
	threads := []int{1, 2, 4}
	if raceEnabled {
		insts, threads = 1_500, []int{1, 4}
	}
	for _, bench := range []string{"mcf", "gcc", "vortex"} {
		for _, nt := range threads {
			for _, m := range selectMachines(nt) {
				t.Run(fmt.Sprintf("%s/t%d/%s", bench, nt, m.name), func(t *testing.T) {
					runCheckingSelect(t, newBenchPipeline(t, m.cfg, bench), insts)
				})
			}
		}
	}
}

// TestWakeBoundNeverLate sweeps producer timings — result cycle, operation
// latency, load hits and misses of several depths — and every consumer
// cycle around them, on every storage scheme. Wherever an operand is unavailable, its wake bound must
// lie after the current cycle and no later than the first cycle at which
// operandPlan reports it available or its producer could have retired.
func TestWakeBoundNeverLate(t *testing.T) {
	schemes := []benchConfig{
		{"cache", Config{Scheme: SchemeCache}},
		{"twolevel", Config{Scheme: SchemeTwoLevel}},
		{"mono1", Config{Scheme: SchemeMonolithic, RFLatency: 1}},
		{"mono3", Config{Scheme: SchemeMonolithic, RFLatency: 3}},
		{"mono6", Config{Scheme: SchemeMonolithic, RFLatency: 6}},
	}
	extras := []uint64{0, 1, 2, 7, 40}
	starts := uint64(8)
	if raceEnabled {
		extras, starts = []uint64{0, 3}, 3
	}
	for _, sc := range schemes {
		cfg := sc.cfg.withDefaults()
		pl := &Pipeline{cfg: cfg, readLat: cfg.readLatency()}
		for execStart := uint64(20); execStart < 20+starts; execStart++ {
			for _, lat := range []uint64{1, 2, 4, 18} {
				for _, extra := range extras {
					checkWakeBound(t, pl, sc.name, execStart, lat, extra)
				}
			}
		}
	}
}

// checkWakeBound sweeps every consumer cycle around one producer timing: a
// load when extra > 0 (extra cycles beyond its hit-assumed result), and
// both a load hit and a plain operation when extra == 0.
func checkWakeBound(t *testing.T, pl *Pipeline, scheme string, execStart, lat, extra uint64) {
	t.Helper()
	loads := []bool{true}
	if extra == 0 {
		loads = append(loads, false)
	}
	for _, load := range loads {
		p := &uop{seq: 7, execStart: execStart}
		p.specResult = execStart + lat - 1
		p.resultAt = p.specResult + extra
		p.missKnownAt = execStart
		if load {
			p.missKnownAt = p.specResult
		}
		s := &srcOp{reg: isa.IntR(1), producer: p, prodSeq: p.seq}
		// stateAt puts the producer in the state it has at cycle c: executing
		// through resultAt, done afterwards (retirement is checked apart).
		stateAt := func(c uint64) {
			p.state = uExecuting
			if c > p.resultAt {
				p.state = uDone
			}
		}
		for now := execStart - uint64(pl.readLat) - 3; now <= p.resultAt+uint64(pl.cfg.RFLatency)+4; now++ {
			stateAt(now)
			if pl.operandPlan(s, now, now) != srcUnavailable {
				if w, at := pl.wakeBound(s, now); w != nil || at != now {
					t.Fatalf("%s: available operand at %d got bound (%v, %d)", scheme, now, w, at)
				}
				continue
			}
			w, at := pl.wakeBound(s, now)
			desc := fmt.Sprintf("%s exec=%d lat=%d extra=%d load=%v now=%d", scheme, execStart, lat, extra, load, now)
			if w != nil || at <= now {
				t.Fatalf("%s: bound (%v, %d) does not lie after now", desc, w, at)
			}
			for c := now + 1; c < at; c++ {
				stateAt(c)
				if pl.operandPlan(s, c, c) != srcUnavailable {
					t.Fatalf("%s: bound %d passes cycle %d, where the operand is available", desc, at, c)
				}
				if c >= p.resultAt+2 {
					t.Fatalf("%s: bound %d passes cycle %d, where the producer may retire", desc, at, c)
				}
			}
		}
	}
	// A producer that has not started executing is returned for parking.
	p := &uop{seq: 9, state: uInIQ}
	s := &srcOp{reg: isa.IntR(1), producer: p, prodSeq: p.seq}
	if w, _ := pl.wakeBound(s, execStart); w != p {
		t.Fatalf("%s: waiting producer not returned for parking (got %v)", scheme, w)
	}
}

// TestWakeBoundIsTight guards the bound against collapsing to "next
// cycle", which would keep every result correct while quietly restoring a
// per-cycle rescan: a consumer of a missed load sleeps until the miss is
// visible, and one that missed the bypass of a long operation sleeps
// until the value is in storage.
func TestWakeBoundIsTight(t *testing.T) {
	cfg := DefaultConfig().withDefaults()
	pl := &Pipeline{cfg: cfg, readLat: cfg.readLatency()}

	load := &uop{seq: 3, state: uExecuting, execStart: 100, specResult: 103, resultAt: 143, missKnownAt: 103}
	s := &srcOp{reg: isa.IntR(1), producer: load, prodSeq: load.seq}
	if _, at := pl.wakeBound(s, 90); at != 102 {
		t.Errorf("load-hit shadow: bound %d, want 102 (its bypass-1 slot)", at)
	}
	if _, at := pl.wakeBound(s, 103); at != 142 {
		t.Errorf("visible load miss: bound %d, want 142 (the real bypass-1 slot)", at)
	}

	div := &uop{seq: 4, state: uExecuting, execStart: 200, specResult: 217, resultAt: 217, missKnownAt: 200}
	s = &srcOp{reg: isa.IntR(1), producer: div, prodSeq: div.seq}
	if _, at := pl.wakeBound(s, 205); at != 216 {
		t.Errorf("divide: bound %d, want 216 (its bypass-1 slot)", at)
	}
}

// TestSelectParksWaitingEntries checks that select stops rescanning
// entries that cannot issue: on the memory-bound mcf most of a full window
// waits on misses, so only a small share of it is flagged when select
// runs.
func TestSelectParksWaitingEntries(t *testing.T) {
	pl := warmPipeline(t, DefaultConfig(), "mcf", 20_000)
	issue := stageIndex(t, "issue")
	var flagged, waiting int
	for c := 0; c < 5_000; c++ {
		pl.startCycle()
		for i := range cycleStages {
			if i == issue {
				pl.wakeDue() // idempotent: issue finds the bucket drained
				for _, w := range pl.ready {
					flagged += bits.OnesCount64(w)
				}
				waiting += pl.iqCount
			}
			cycleStages[i].run(pl)
		}
	}
	t.Logf("%d flagged slots at select per %d entries in the window", flagged, waiting)
	if flagged*4 > waiting {
		t.Errorf("%d flagged slots per %d entries in the window: select still scans most of it", flagged, waiting)
	}
}
