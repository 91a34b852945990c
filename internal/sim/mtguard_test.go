package sim

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// goldenRunFingerprints pins the serialized RunRecord of every
// default-matrix scheme at 50k instructions, captured from the
// single-context pipeline immediately before the multithreaded-workload
// refactor. The refactored machine at Threads=1 must reproduce these
// records byte-for-byte: the single-context configuration is the identity
// of the multithreaded generalization (thread-0 address/PC salts are
// no-ops, the round-robin fetch and retire rotors reduce to the classic
// walks, and every new result field is omitempty at its zero value).
// The cache schemes were re-pinned once, at SimulatorVersion 4, when the
// single backing read port began reporting port_conflict_stalls; their
// timing fields did not move.
//
// If this test fails, a change moved single-context timing or the
// results wire format — a regression unless it bumps SimulatorVersion.
var goldenRunFingerprints = map[string]map[string]string{
	"gzip": {
		"rf-1cyc":              "09a4ce37d4e9ae68449f7b92d4397e340ea10fc22f6711a2efa4fe46c701fcae",
		"rf-3cyc":              "9e83dd3b62b23de96f43a495a191696ab6675bea74ea0b6651eae785a00232bc",
		"use-64x2-preg":        "aabfea9667c35744e8c0da49c5294b4c21a621bf641af060d171683b8179fed8",
		"use-64x2-round-robin": "6b3e2360beca2cc6bbae9d152d67b9085114e2f6a55741754be0379d81ea8510",
		"use-64x2-minimum":     "3d11d4fe598164525d880660df744957cbae230c53f31c3313c0bb3a4da5c9a3",
		"use-64x2-filtered":    "17f6838f17fe067c57d8e764263559bd12e765eff9824bf167595de05420f7cf",
		"lru-64x2-round-robin": "759865ec5919ecc61f0347bbd6fadefaa45d153e364f674480c7fd45f85c6e39",
		"nb-64x2-round-robin":  "690f35bd3b3158229cddd3584e0d127986c4357a6c48c90c5626e907daa74edc",
		"twolevel-96":          "5343057366325a0017ebf10e8e9de82b85c259d5587d549bcad75165720df6d7",
	},
	"mcf": {
		"rf-1cyc":              "75a8167d3138d9bf1ddb7b0707790d8ece4485b964641a83b6e5f51256cb5c67",
		"rf-3cyc":              "2106697bcebb7a9882cb8634985f3170f55571e771bab1bcac48a75eb5a7ace0",
		"use-64x2-preg":        "3fba44cc4c2c8e1dc7a0d00f50d0af1c39ca538e46a860825ec5aaf331e5923e",
		"use-64x2-round-robin": "bd8f00b6d18068ef72ae94f4011d5ba9567a41770135af49be7f124b34757d4f",
		"use-64x2-minimum":     "af0c6101bcff9fc00bb55cd6a0497e02f60f6d86115cb5b5847ffb2650bf6f48",
		"use-64x2-filtered":    "d679a36b959ed140a623f7bf0988b867c001c610ead1d55e9fe2919fe4af909b",
		"lru-64x2-round-robin": "8c1bc2a85f4ad250a8015db986ada9e4c5fd2eef102ba894e18c92fbee5d2c4e",
		"nb-64x2-round-robin":  "bd550740df7d5530c38451b9190b4056bb0add5457257e1539cefb4ed0521939",
		"twolevel-96":          "fdd84dd24b3da184ef3b1b9756b53a0af87651dc59d9c63a643df9a960916fe7",
	},
}

// TestSingleContextGoldenFingerprints: the multithreaded pipeline at
// Threads=1 is bit-identical — timing and serialized results — to the
// pre-refactor single-context machine, for every default-matrix scheme.
func TestSingleContextGoldenFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("18 x 50k-inst runs")
	}
	o := Options{Insts: 50_000}
	for bench, want := range goldenRunFingerprints {
		for _, sc := range DefaultMatrix() {
			exp, ok := want[sc.Name]
			if !ok {
				t.Errorf("%s/%s: no pinned fingerprint for matrix scheme (update the table deliberately)", bench, sc.Name)
				continue
			}
			res, err := Execute(bench, sc, o)
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, sc.Name, err)
			}
			data, err := json.Marshal(NewRunRecord(bench, sc, o, res))
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", bench, sc.Name, err)
			}
			got := fmt.Sprintf("%x", sha256.Sum256(data))
			if got != exp {
				t.Errorf("%s/%s: RunRecord fingerprint drifted from the pre-multithreading pipeline:\n got %s\nwant %s",
					bench, sc.Name, got, exp)
			}
		}
	}
}

// pinnedPoint is one (bench, scheme spec, options) run whose serialized
// RunRecord hash is pinned by TestPinnedRunFingerprints.
type pinnedPoint struct {
	bench string
	spec  string
	o     Options
	want  string
}

// pinnedRunFingerprints extends the single-context goldens above to the
// machines they do not reach: multithreaded runs (T=2, T=4), the
// port-filtering family, oracle use tables, backing-latency overrides, the
// 1-cycle monolithic file and one interval-parallel point. The hashes were
// captured before the issue stage became event-driven (the unported cache
// points re-pinned at SimulatorVersion 4, which added their port stalls),
// and no pipeline optimization may move them; a deliberate timing change
// bumps SimulatorVersion and re-pins them.
var pinnedRunFingerprints = []pinnedPoint{
	{"gzip", "use:64x2:filtered", Options{Insts: 20_000, Threads: 2}, "70759d4a6bf5db3367526595c56aa3abf01eb569ec17e183194b34fe6c45af54"},
	{"mcf", "use:64x2:filtered", Options{Insts: 20_000, Threads: 2}, "2cf949fe49c94b68fd44f18984d54f575d11c4642c02e1d687b51907c292ddc8"},
	{"gzip", "use:64x2:filtered", Options{Insts: 20_000, Threads: 4}, "39a2566a796aecc90c7aeaf288325c8012aa8cbc10d07be75a4eee4b96d3425a"},
	{"mcf", "use:64x2:filtered", Options{Insts: 20_000, Threads: 4}, "307274d5ff8c4c32ab9c1259ee14aade3ab9a92869e57b7e5f87bb67149f00be"},
	{"gzip", "port:16x2:p2", Options{Insts: 20_000}, "7c3db853c454c6499fc4361b317da4da6ec8761daf0641eb52211843ef4f888b"},
	{"mcf", "port:16x2:p1", Options{Insts: 20_000}, "e496acae2940f63d2b2bfa68cf1ddfe9a27aa3eb13ff5763a2ffca846a8034c1"},
	{"mcf", "port:64x2:p2", Options{Insts: 20_000, Threads: 4}, "ff47488c3d2ed839c67077ba96fbfcc27dd9a6ac0962ad33a6ddeb16049df1d9"},
	{"gzip", "use:64x2:filtered:oracle", Options{Insts: 20_000}, "24f89926aca182e541135369cc5c84c6a3d5c880836b0d42a3436ba6016bf4ec"},
	{"mcf", "lru:64x2:oracle", Options{Insts: 20_000, Threads: 2}, "8ea28a3066314c8b80e61fe3c7a4a69f2fe1e63ba8f921f5103b11e40dc94409"},
	{"gzip", "use:64x2:filtered:b5", Options{Insts: 20_000}, "d7ec214183071967221cc03083c2aa1ded0a74c23bff7f5358ea7d7c35d68d89"},
	{"mcf", "nb:64x2:b4", Options{Insts: 20_000}, "2b49c587ed5db6f73660fdbcc10386fb29ccc0074a0834bcac72847951cf78df"},
	{"gzip", "mono:1", Options{Insts: 20_000, Threads: 2}, "363704778be2b9a7e36efbc93a8be7058b228016de777bf448f54381b2c994ca"},
	{"mcf", "mono:3", Options{Insts: 20_000, Threads: 4}, "e66f7fdc4747caf22ba99639c3d38b40dba4efb5c993a440475fd1171aa583e2"},
	{"gzip", "twolevel:160", Options{Insts: 20_000, Threads: 2}, "8307f8de3e0cd97baa3cbbaa43b33001da3b7708e11c29b8c20b53b79c942f66"},
	{"gzip", "use:64x2:filtered", Options{Insts: 40_000, Intervals: 4}, "0196fb94a656a9ae366db5536e996321ae55fe2234593e383f3459a9c12e38d6"},
}

// TestPinnedRunFingerprints holds every pinned point to its literal
// RunRecord hash.
func TestPinnedRunFingerprints(t *testing.T) {
	for _, p := range pinnedRunFingerprints {
		sc, err := ParseSchemeSpec(p.spec)
		if err != nil {
			t.Fatalf("%s: %v", p.spec, err)
		}
		res, err := Execute(p.bench, sc, p.o)
		if err != nil {
			t.Fatalf("%s/%s %+v: %v", p.bench, p.spec, p.o, err)
		}
		data, err := json.Marshal(NewRunRecord(p.bench, sc, p.o, res))
		if err != nil {
			t.Fatalf("%s/%s: marshal: %v", p.bench, p.spec, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != p.want {
			t.Errorf("%s/%s threads=%d intervals=%d: RunRecord fingerprint %s, want %s",
				p.bench, p.spec, p.o.Threads, p.o.Intervals, got, p.want)
		}
	}
}
