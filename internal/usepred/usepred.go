// Package usepred implements the degree-of-use predictor of Butts & Sohi
// ("Characterizing and predicting value degree of use", MICRO 2002), the
// paper's reference [5], in the Table 1 configuration: 4K entries, 4-way
// set-associative, 6-bit tags, 4-bit predictions, 2-bit confidence, and a
// 6-bit control-flow signature qualifying each entry.
//
// The signature substitutes global branch history at the producing
// instruction's rename for the original's future-control-flow bits: in the
// loop-dominated regions where degree of use varies by path, the recent
// history determines the future path almost as sharply, and the pipeline
// has it available at rename time without delaying prediction. Because raw
// history is far less selective than the original's distilled
// future-control-flow encoding, the default matches only the low 3 bits —
// using all 6 fragments the training space across unrelated histories and
// costs ~15% accuracy on branchy workloads. Entries still reserve 6
// signature bits of storage, as in Table 1. (See DESIGN.md.)
package usepred

// Config sizes the predictor. Zero values select the Table 1 defaults.
type Config struct {
	Entries  int   // total entries (power of two); default 4096
	Ways     int   // associativity; default 4
	ConfMax  uint8 // confidence saturation; default 3 (2-bit)
	ConfMin  uint8 // confidence required to supply a prediction; default 1
	MaxCount uint8 // prediction saturation; default 15 (4-bit)
	SigBits  int   // control-flow signature bits matched per entry; default 3
}

func (c Config) withDefaults() Config {
	if c.Entries == 0 {
		c.Entries = 4096
	}
	if c.Ways == 0 {
		c.Ways = 4
	}
	if c.ConfMax == 0 {
		c.ConfMax = 3
	}
	if c.ConfMin == 0 {
		c.ConfMin = 1
	}
	if c.MaxCount == 0 {
		c.MaxCount = 15
	}
	if c.SigBits == 0 {
		c.SigBits = 3
	}
	return c
}

type entry struct {
	tag   uint8 // 6-bit partial PC
	sig   uint8 // 6-bit control-flow signature
	pred  uint8 // 4-bit degree-of-use prediction (saturating)
	conf  uint8 // 2-bit confidence
	valid bool
	lru   uint32
}

// Predictor is the degree-of-use predictor. It is looked up at rename for
// every register-writing instruction and trained when the corresponding
// physical register is freed (at which point the true use count is known).
type Predictor struct {
	cfg   Config
	sets  [][]entry
	clock uint32

	// Statistics.
	Lookups     uint64
	Hits        uint64 // confident prediction supplied
	TrainEvents uint64
	Correct     uint64 // trained value matched the prior prediction
}

// New builds a predictor.
func New(cfg Config) *Predictor {
	cfg = cfg.withDefaults()
	nsets := cfg.Entries / cfg.Ways
	sets := make([][]entry, nsets)
	backing := make([]entry, cfg.Entries)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &Predictor{cfg: cfg, sets: sets}
}

func (p *Predictor) index(pc uint64) int {
	return int((pc >> 2) & uint64(len(p.sets)-1))
}

func tag6(pc uint64) uint8 {
	nbits := 6
	return uint8((pc >> (2 + 10)) & ((1 << nbits) - 1))
}

func (p *Predictor) sigOf(sig uint64) uint8 { return uint8(sig & ((1 << uint(p.cfg.SigBits)) - 1)) }

// Predict returns the predicted degree of use for the value produced by
// the instruction at pc under control-flow signature sig. ok is false when
// the predictor has no confident entry (the pipeline then applies the
// unknown default).
func (p *Predictor) Predict(pc uint64, sig uint64) (count uint8, ok bool) {
	p.Lookups++
	set := p.sets[p.index(pc)]
	t, s := tag6(pc), p.sigOf(sig)
	for i := range set {
		e := &set[i]
		if e.valid && e.tag == t && e.sig == s {
			p.clock++
			e.lru = p.clock
			if e.conf >= p.cfg.ConfMin {
				p.Hits++
				return e.pred, true
			}
			return 0, false
		}
	}
	return 0, false
}

// Train records the true degree of use for the value produced at pc under
// signature sig. Counts above the 4-bit maximum saturate.
func (p *Predictor) Train(pc uint64, sig uint64, actual int) {
	p.TrainEvents++
	if actual > int(p.cfg.MaxCount) {
		actual = int(p.cfg.MaxCount)
	}
	a := uint8(actual)
	set := p.sets[p.index(pc)]
	t, s := tag6(pc), p.sigOf(sig)
	p.clock++
	// Hit: reinforce or decay.
	for i := range set {
		e := &set[i]
		if e.valid && e.tag == t && e.sig == s {
			e.lru = p.clock
			if e.pred == a {
				p.Correct++
				if e.conf < p.cfg.ConfMax {
					e.conf++
				}
			} else if e.conf > 1 {
				e.conf--
			} else {
				e.pred = a
				e.conf = 1
			}
			return
		}
	}
	// Miss: allocate, preferring invalid then LRU entries.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = entry{tag: t, sig: s, pred: a, conf: 1, valid: true, lru: p.clock}
}

// ThreadPC salts a program counter with the hardware context id, giving
// each context its own predictor signature space so interleaved threads
// running the same static code do not train each other's entries. Context
// 0 is the identity, keeping single-context runs bit-identical to the
// pre-multithreading pipeline. The salt lands above any generated PC
// (bits 48+) so it can never collide with a real address.
func ThreadPC(pc uint64, tid int) uint64 {
	return pc ^ uint64(uint32(tid))<<48
}
