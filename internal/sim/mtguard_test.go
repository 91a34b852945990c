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
//
// If this test fails, the refactor changed single-context timing or the
// results wire format — both are regressions, not re-baselining events.
var goldenRunFingerprints = map[string]map[string]string{
	"gzip": {
		"rf-1cyc":              "09a4ce37d4e9ae68449f7b92d4397e340ea10fc22f6711a2efa4fe46c701fcae",
		"rf-3cyc":              "9e83dd3b62b23de96f43a495a191696ab6675bea74ea0b6651eae785a00232bc",
		"use-64x2-preg":        "249ba3556f7fd1a222af4e5f4fd7bd4e1aede853685b24d3335aa21635f1610a",
		"use-64x2-round-robin": "ee1763c44e478853a50289e19576d91bc6a79c858580b707be6377edf8f90cf7",
		"use-64x2-minimum":     "9f2653d9f97a56b3c84f1228fdfce7c63a7fa8d2134de2ebb84113d8154c9676",
		"use-64x2-filtered":    "a387f846b0b7f7a65954c0a9c6ed6a8fc3a59b8697c91ed9e4c24282b656092b",
		"lru-64x2-round-robin": "bca53789b24e065c2318f9fab24f834e8b1d49a3030d4709821feb9a89da587f",
		"nb-64x2-round-robin":  "07881184aa1453fcf3bef709027c961b9bcc3515b886bd253976e93ab2193b79",
		"twolevel-96":          "5343057366325a0017ebf10e8e9de82b85c259d5587d549bcad75165720df6d7",
	},
	"mcf": {
		"rf-1cyc":              "75a8167d3138d9bf1ddb7b0707790d8ece4485b964641a83b6e5f51256cb5c67",
		"rf-3cyc":              "2106697bcebb7a9882cb8634985f3170f55571e771bab1bcac48a75eb5a7ace0",
		"use-64x2-preg":        "5793211e7703b643d49cec336827acbf5f194fe7cddb9cf10861c729f7cf0c2f",
		"use-64x2-round-robin": "49c95685fe68fedde99ea9cb774b6b9b162e2cbca52a070220570f3493708b80",
		"use-64x2-minimum":     "9fe8dc9dbd27e03dac49858d0432aeaeaa957b3261642e9f5de05dff2e930da8",
		"use-64x2-filtered":    "fb83b81e7570f8b3a0b5251197d37c206f7093a9209cb677f25e43f81015ee64",
		"lru-64x2-round-robin": "170637a6c7dfbea4ae7adc466d794362566bec7a1dc9c39674f6dba41bdfe59d",
		"nb-64x2-round-robin":  "d69251600b65b24fe855714c0ba1218a0cf9f0073ce290f0d3c9bd81edd02bc5",
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
// captured before the issue stage became event-driven, and no pipeline
// optimization may move them; a deliberate timing change bumps
// SimulatorVersion and re-pins them.
var pinnedRunFingerprints = []pinnedPoint{
	{"gzip", "use:64x2:filtered", Options{Insts: 20_000, Threads: 2}, "e0e7622044b38ae6b26cdfce2e4c28f8c69cac9e869dad43e413939e95c5b751"},
	{"mcf", "use:64x2:filtered", Options{Insts: 20_000, Threads: 2}, "a32a8e3682e9bb5bc3e9ca679aa00251adae9fb0dd4d0e978d5ea1cc79128a65"},
	{"gzip", "use:64x2:filtered", Options{Insts: 20_000, Threads: 4}, "2a150d28aa23d2257e5441d7c2a4c371c5543e35109878121984f18e441d2e9b"},
	{"mcf", "use:64x2:filtered", Options{Insts: 20_000, Threads: 4}, "d8a881375d7bc4f7aff50481304863b24a1de4af8ee4878cc7cfbbe407e5bd8c"},
	{"gzip", "port:16x2:p2", Options{Insts: 20_000}, "7c3db853c454c6499fc4361b317da4da6ec8761daf0641eb52211843ef4f888b"},
	{"mcf", "port:16x2:p1", Options{Insts: 20_000}, "e496acae2940f63d2b2bfa68cf1ddfe9a27aa3eb13ff5763a2ffca846a8034c1"},
	{"mcf", "port:64x2:p2", Options{Insts: 20_000, Threads: 4}, "ff47488c3d2ed839c67077ba96fbfcc27dd9a6ac0962ad33a6ddeb16049df1d9"},
	{"gzip", "use:64x2:filtered:oracle", Options{Insts: 20_000}, "fbe8a292d718e2083bac6c67753e416336c9e0553fd8d5c9ddc70e47d6ddae1b"},
	{"mcf", "lru:64x2:oracle", Options{Insts: 20_000, Threads: 2}, "f81e8d7679a9a68c77e60230abc307deb35ae160496ad7b367e5b8e8cc35fe80"},
	{"gzip", "use:64x2:filtered:b5", Options{Insts: 20_000}, "1050f9a0cade2ad9e08ffcc76ddca79b1f12d3e52984df52e41cf46fa9832cb1"},
	{"mcf", "nb:64x2:b4", Options{Insts: 20_000}, "18a08f942f3c48e25049cf62d8f781e3f431ec3d547df46c66c6a7ca4263e916"},
	{"gzip", "mono:1", Options{Insts: 20_000, Threads: 2}, "363704778be2b9a7e36efbc93a8be7058b228016de777bf448f54381b2c994ca"},
	{"mcf", "mono:3", Options{Insts: 20_000, Threads: 4}, "e66f7fdc4747caf22ba99639c3d38b40dba4efb5c993a440475fd1171aa583e2"},
	{"gzip", "twolevel:160", Options{Insts: 20_000, Threads: 2}, "8307f8de3e0cd97baa3cbbaa43b33001da3b7708e11c29b8c20b53b79c942f66"},
	{"gzip", "use:64x2:filtered", Options{Insts: 40_000, Intervals: 4}, "cd7ebe7356a3361f6a8c723929dbb4b900b35e0f60270345fb62d72310645efd"},
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
