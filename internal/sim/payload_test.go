package sim

// Tests for the durable payload codec: a decoded payload equals today's
// JSON round trip of the result for every scheme family, thread count and
// interval split; the layout hash moves with every shape edit; and the
// decoder rejects malformed bytes instead of misreading them.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"regcache/internal/pipeline"
)

// payloadCase is one simulated point whose result the codec must carry.
type payloadCase struct {
	name, bench, spec string
	opts              Options
}

var payloadCases = []payloadCase{
	{"cache", "gcc", "use:64x2:filtered", Options{Insts: 4000}},
	{"mono", "gcc", "mono:3", Options{Insts: 4000}},
	{"twolevel", "gcc", "twolevel:96", Options{Insts: 4000}},
	{"oracle", "gcc", "use:64x2:filtered:oracle", Options{Insts: 4000}},
	{"port-t2", "gcc", "port:32x2:filtered:p2", Options{Insts: 4000, Threads: 2}},
	{"port-t4", "mcf", "port:32x2:filtered:p2", Options{Insts: 4000, Threads: 4}},
	{"k2", "gcc", "use:64x2:filtered", Options{Insts: 6000, Intervals: 2, WarmupInsts: 1000}},
}

// simulate runs one payload case.
func (c payloadCase) simulate(tb testing.TB) (Scheme, pipeline.Result) {
	tb.Helper()
	sc, err := ParseSchemeSpec(c.spec)
	if err != nil {
		tb.Fatalf("%s: %v", c.name, err)
	}
	res, err := Execute(DefaultWorkloads(), c.bench, sc, c.opts)
	if err != nil {
		tb.Fatalf("%s: %v", c.name, err)
	}
	return sc, res
}

// jsonRoundTrip is what a version-1 (JSON) store hit returned.
func jsonRoundTrip(tb testing.TB, res pipeline.Result) pipeline.Result {
	tb.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		tb.Fatal(err)
	}
	var out pipeline.Result
	if err := json.Unmarshal(data, &out); err != nil {
		tb.Fatal(err)
	}
	return out
}

// encodeV1Payload writes the version-1 JSON payload layout, so tests can
// plant entries an older build left behind.
func encodeV1Payload(tb testing.TB, rec RunRecord, res pipeline.Result) []byte {
	tb.Helper()
	data, err := json.Marshal(struct {
		PayloadVersion int             `json:"payload_version"`
		Record         RunRecord       `json:"record"`
		Result         pipeline.Result `json:"result"`
	}{1, rec, res})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestStoredPayloadMatchesJSON: for every scheme family, T in {1,2,4}
// and K=2, the result a payload decodes to is DeepEqual to the JSON round
// trip a version-1 hit gave, and the run record built from it is
// byte-identical — so response bodies, digests and goldens cannot tell
// the codecs apart.
func TestStoredPayloadMatchesJSON(t *testing.T) {
	for _, c := range payloadCases {
		t.Run(c.name, func(t *testing.T) {
			sc, res := c.simulate(t)
			data := EncodeStoredPayload(c.bench, sc, c.opts, res)
			rec, got, err := DecodeStoredPayload(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if want := jsonRoundTrip(t, res); !reflect.DeepEqual(got, want) {
				t.Errorf("decoded result differs from the JSON round trip:\n got %+v\nwant %+v", got, want)
			}
			o := c.opts.withDefaults()
			r1, _ := json.Marshal(NewRunRecord(c.bench, sc, o, res))
			r2, _ := json.Marshal(NewRunRecord(c.bench, sc, o, got))
			if !bytes.Equal(r1, r2) {
				t.Errorf("run record from the decoded result differs:\n%s\n%s", r1, r2)
			}
			if r3, _ := json.Marshal(rec); !bytes.Equal(r1, r3) {
				t.Errorf("stored record differs from NewRunRecord:\n%s\n%s", r1, r3)
			}
			if (c.opts.Threads > 1) != (got.Threads != nil) || (c.opts.Intervals > 1) != (got.Intervals != nil) {
				t.Errorf("optional blocks: threads %v intervals %v", got.Threads != nil, got.Intervals != nil)
			}
		})
	}
}

// TestPayloadLayoutHash: adding, removing, renaming, reordering or
// retyping any encoded field, at any depth, changes the layout hash;
// fields the codec does not encode (unexported, json:"-") do not.
func TestPayloadLayoutHash(t *testing.T) {
	type inner struct {
		C uint64
		D []float64
	}
	type base struct {
		A int
		B inner
	}
	hash := func(v any) uint64 {
		_, h := compilePlans(reflect.TypeOf(v))
		return h
	}
	h0 := hash(base{})
	if h0 != hash(base{}) {
		t.Fatal("layout hash is not deterministic")
	}
	changed := map[string]any{
		"added": struct {
			A int
			B inner
			E bool
		}{},
		"removed": struct{ A int }{},
		"renamed": struct {
			A2 int
			B  inner
		}{},
		"reordered": struct {
			B inner
			A int
		}{},
		"retyped": struct {
			A uint64
			B inner
		}{},
		"nested-added": struct {
			A int
			B struct {
				C uint64
				D []float64
				E uint8
			}
		}{},
		"nested-renamed": struct {
			A int
			B struct {
				C2 uint64
				D  []float64
			}
		}{},
		"nested-reordered": struct {
			A int
			B struct {
				D []float64
				C uint64
			}
		}{},
		"nested-retyped": struct {
			A int
			B struct {
				C uint64
				D []int64
			}
		}{},
		"slice-to-array": struct {
			A int
			B struct {
				C uint64
				D [2]float64
			}
		}{},
		"value-to-pointer": struct {
			A int
			B *inner
		}{},
	}
	for name, v := range changed {
		if hash(v) == h0 {
			t.Errorf("%s: layout hash unchanged", name)
		}
	}
	same := map[string]any{
		"unexported": struct {
			A int
			B inner
			e bool
		}{},
		"json-skipped": struct {
			A int
			B inner
			E bool `json:"-"`
		}{},
		"named-kind": struct {
			A pipeline.Scheme // an int kind
			B inner
		}{},
	}
	for name, v := range same {
		if hash(v) != h0 {
			t.Errorf("%s: layout hash changed for a field the codec does not encode", name)
		}
	}
}

// TestPayloadUnsupportedKindsPanic: a map, interface, func or chan field
// (or another kind the payload types do not use, an embedded field or a
// recursive type) fails when the layout is computed, so adding one
// to pipeline.Result fails the tests instead of writing bad payloads.
func TestPayloadUnsupportedKindsPanic(t *testing.T) {
	type node struct{ Next *node }
	for name, v := range map[string]any{
		"map":       struct{ M map[string]int }{},
		"interface": struct{ I any }{},
		"func":      struct{ F func() }{},
		"chan":      struct{ C chan int }{},
		"float32":   struct{ F float32 }{},
		"int32":     struct{ I int32 }{},
		"recursive": node{},
		"embedded":  struct{ inner2 }{},
		"zero-wide": struct{ S []struct{} }{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: layout computed without a panic", name)
				}
			}()
			compilePlans(reflect.TypeOf(v))
		}()
	}
}

type inner2 struct{ X int }

// TestPayloadScalarKinds round-trips every scalar kind the codec
// supports, at both ends of its range.
func TestPayloadScalarKinds(t *testing.T) {
	type all struct {
		B   bool
		I   int
		I64 int64
		U   uint
		U8  uint8
		U64 uint64
		F   float64
		S   string
		A   [2]int
		P   *uint8
		L   []uint64
		N   []uint8
	}
	plans, _ := compilePlans(reflect.TypeFor[all]())
	p := plans[0]
	u8 := uint8(255)
	for _, v := range []all{
		{},
		{B: true, I: -1 << 63, I64: -1 << 63, F: math.Inf(-1), S: "\xff",
			A: [2]int{-1, 1}, P: &u8, L: []uint64{}},
		{I: 1<<63 - 1, I64: 1<<63 - 1, U: 1<<64 - 1, U8: 255, U64: 1<<64 - 1,
			F: 1e308, S: "héllo", L: []uint64{1, 1<<64 - 1}, N: []uint8{7}},
	} {
		b := p.encode(nil, reflect.ValueOf(v))
		if len(b) < p.min {
			t.Errorf("encoded %d bytes, under the %d-byte minimum", len(b), p.min)
		}
		var got all
		r := payloadReader{b}
		if err := p.decode(&r, reflect.ValueOf(&got).Elem()); err != nil || len(r.b) != 0 {
			t.Fatalf("decode %+v: %v (%d bytes left)", v, err, len(r.b))
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, v)
		}
	}
}

// TestStoredPayloadRejects: the decoder turns every malformed shape into
// an error — a layout-hash mismatch, truncation anywhere, trailing bytes,
// a flag byte other than 0 or 1, and a length prefix larger than the rest
// of the payload. (TestStoredPayloadRoundTrip covers other versions.)
func TestStoredPayloadRejects(t *testing.T) {
	c := payloadCases[4] // T=2: thread slice and record strings present
	sc, res := c.simulate(t)
	good := EncodeStoredPayload(c.bench, sc, c.opts, res)
	if _, _, err := DecodeStoredPayload(good); err != nil {
		t.Fatalf("good payload: %v", err)
	}

	flip := func(off int, b byte) []byte {
		d := bytes.Clone(good)
		d[off] = b
		return d
	}
	rejects := map[string][]byte{
		"empty":         nil,
		"layout hash":   flip(1, good[1]^1),
		"trailing byte": append(bytes.Clone(good), 0),
	}
	// Threads is the result's last field, so its presence byte ends the
	// result section of the same result without threads.
	noThreads := res
	noThreads.Threads = nil
	at := payloadHeaderLen + len(storedPayload().result.encode(nil, reflect.ValueOf(noThreads))) - 1
	if good[at] != 1 || binary.LittleEndian.Uint32(good[at+1:]) != uint32(len(res.Threads)) {
		t.Fatalf("thread slice header not at byte %d", at)
	}
	rejects["flag byte 2"] = flip(at, 2)
	huge := bytes.Clone(good)
	binary.LittleEndian.PutUint32(huge[at+1:], 1<<31)
	rejects["huge count"] = huge

	for name, data := range rejects {
		if _, _, err := DecodeStoredPayload(data); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.HasPrefix(err.Error(), "sim: decode stored payload: ") {
			t.Errorf("%s: error %q lacks the codec prefix", name, err)
		}
	}
	for n := 0; n < len(good); n++ {
		if _, _, err := DecodeStoredPayload(good[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(good))
		}
	}
}

// BenchmarkStoredPayload times the codec on a gcc use-cache result: the
// store-hit path (header and result section only), the full decode, the
// encode, and the version-1 JSON decode it replaced.
func BenchmarkStoredPayload(b *testing.B) {
	c := payloadCases[0]
	sc, res := c.simulate(b)
	data := EncodeStoredPayload(c.bench, sc, c.opts, res)
	v1 := encodeV1Payload(b, NewRunRecord(c.bench, sc, c.opts.withDefaults(), res), res)
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var got pipeline.Result
			if _, err := decodePayloadResult(data, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := DecodeStoredPayload(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EncodeStoredPayload(c.bench, sc, c.opts, res)
		}
	})
	b.Run("v1-json-hit", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(v1)))
		for i := 0; i < b.N; i++ {
			var sr struct {
				Result pipeline.Result `json:"result"`
			}
			if err := json.Unmarshal(v1, &sr); err != nil {
				b.Fatal(err)
			}
		}
	})
}
