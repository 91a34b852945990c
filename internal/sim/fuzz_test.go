package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"regcache/internal/core"
)

// FuzzSchemeSpec fuzzes the compact scheme-spec grammar. Any string either
// fails to parse with a diagnostic that names its spec, or yields a scheme
// that survives Validate and round-trips through the wire record form
// (SchemeRecord → ToScheme) unchanged. Nothing may panic: the parser runs
// on operator input via regsim -scheme and on every sweep-request scheme
// string the daemon admits.
func FuzzSchemeSpec(f *testing.F) {
	seeds := []string{
		// One of each kind, defaults exercised.
		"mono",
		"mono:1",
		"use:64x2",
		"use:64x2:preg",
		"lru:64x2",
		"nb:64x2:rr",
		"twolevel:96",
		"twolevel:96:2",
		// Port-filtering family (ISSUE 10): dedicated kind, default ports,
		// explicit :pN, and the modifier applied to other cache kinds.
		"port:64x2",
		"port:64x2:p4",
		"port:64x2:min:p1",
		"use:64x2:p2",
		"use:64x2:p4:b5",
		"lru:128x4:rr:p8:oracle",
		// Modifier soup: order-independence and stacking.
		"use:64x2:oracle:b2:p2",
		"use:64x2:p2:oracle:b2",
		// Errors: each should name the offending token and position.
		"port",
		"port:64x2:p0",
		"use:64x2:p999",
		"mono:3:p2",
		"twolevel:96:p2",
		"use:64y2",
		"use:64x2:frontal",
		"bogus:64x2",
		"use:64x2:rr:extra",
		"mono:0",
		"use:0x0",
		"use:64x3",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchemeSpec(spec)
		if err != nil {
			// Every diagnostic carries the spec so batch sweep errors
			// self-identify.
			if !strings.Contains(err.Error(), "sim:") {
				t.Fatalf("error without package prefix: %v", err)
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("parsed scheme %q fails validation: %v", spec, err)
		}
		if s.Name == "" {
			t.Fatalf("parsed scheme %q has no name", spec)
		}
		rt, err := NewSchemeRecord(s).ToScheme()
		if err != nil {
			t.Fatalf("scheme %q does not round-trip its record: %v", spec, err)
		}
		if !reflect.DeepEqual(s, rt) {
			t.Fatalf("record round-trip changed scheme %q:\n  parsed %+v\n  rebuilt %+v", spec, s, rt)
		}
	})
}

// FuzzOptions fuzzes the run contract. Options that Validate rejects must
// get an error naming a SweepRequest option field (the daemon returns it
// as a 400). Accepted options must canonicalize idempotently, hash to the
// same store key as their canonical form, and run use:16x2 on gzip at a
// budget of at most 2k instructions without a panic.
func FuzzOptions(f *testing.F) {
	f.Add(uint64(2000), 0, uint64(0), 0, 0, false)
	f.Add(uint64(1500), 4, uint64(100), 0, 0, false)
	f.Add(uint64(500), 1, uint64(99), 2, 0, false)
	f.Add(uint64(2000), 0, uint64(0), 4, 16, false)
	f.Add(uint64(2000), MaxIntervals, uint64(1)<<40, 0, 0, false)
	f.Add(uint64(999), 1, uint64(0), 0, 0, true)
	// Rejected: each rule once.
	f.Add(uint64(2000), MaxIntervals+1, uint64(0), 0, 0, false)
	f.Add(uint64(2000), -1, uint64(0), 0, 0, false)
	f.Add(uint64(2000), 0, uint64(0), MaxThreads+1, 0, false)
	f.Add(uint64(2000), 0, uint64(0), -2, 0, false)
	f.Add(uint64(2000), 0, uint64(0), 2, -1, false)
	f.Add(uint64(2000), 0, uint64(0), 1, 8, false)
	f.Add(uint64(2000), 2, uint64(0), 2, 0, false)
	f.Add(uint64(2000), 2, uint64(0), 0, 0, true)
	f.Add(uint64(2000), 0, uint64(0), 3, 0, true)

	// The wire names of the option fields, read off SweepRequest's tags.
	var wireFields []string
	req := reflect.TypeOf(SweepRequest{})
	opts := reflect.TypeOf(Options{})
	for i := 0; i < opts.NumField(); i++ {
		if field, ok := req.FieldByName(opts.Field(i).Name); ok {
			wireFields = append(wireFields, strings.Split(field.Tag.Get("json"), ",")[0])
		}
	}
	s := UseBased(16, 2, core.IndexFilteredRR)

	f.Fuzz(func(t *testing.T, insts uint64, intervals int, warmup uint64, threads, interleave int, track bool) {
		o := Options{
			Insts:          1 + insts%2000,
			Intervals:      intervals,
			WarmupInsts:    warmup,
			Threads:        threads,
			Interleave:     interleave,
			TrackLifetimes: track,
			TrackLive:      track,
		}
		if err := o.Validate(); err != nil {
			if !slices.ContainsFunc(wireFields, func(f string) bool { return strings.Contains(err.Error(), f) }) {
				t.Fatalf("%+v: error %q names none of the wire fields %v", o, err, wireFields)
			}
			return
		}
		c := o.withDefaults()
		if c.withDefaults() != c {
			t.Fatalf("%+v: canonicalizing twice gives %+v, once %+v", o, c.withDefaults(), c)
		}
		if Fingerprint(Job{Scheme: s, Bench: "gzip", Opts: o}) != Fingerprint(Job{Scheme: s, Bench: "gzip", Opts: c}) {
			t.Fatalf("%+v: store key differs from its canonical form %+v", o, c)
		}
		// A fresh workload cache per input: checkpoint sets are cached per
		// (budget, K, warm-up), so a shared one would grow with the corpus.
		if _, err := ExecuteWith(NewWorkloadCache(), "gzip", s, o); err != nil {
			t.Fatalf("%+v: accepted options failed to run: %v", o, err)
		}
	})
}

// FuzzStoredPayload fuzzes the durable payload decoder, which reads bytes
// from disk and from fleet peers. Any input decodes to a value or an error
// without a panic, allocates no more than its length justifies, and, when
// accepted, re-encodes to exactly the input bytes: the encoding is
// canonical, so the re-encoded value decodes to the same value (which
// byte equality shows even for NaN fields, where DeepEqual cannot).
func FuzzStoredPayload(f *testing.F) {
	for _, i := range []int{0, 1, 2, 4, 6} { // cache, mono, two-level, T=2 port, K=2
		c := payloadCases[i]
		sc, res := c.simulate(f)
		data := EncodeStoredPayload(c.bench, sc, c.opts, res)
		f.Add(data)
		for _, n := range []int{0, payloadHeaderLen, len(data) / 2, len(data) - 1} {
			f.Add(data[:n])
		}
		if i == 0 {
			f.Add(encodeV1Payload(f, NewRunRecord(c.bench, sc, c.opts.withDefaults(), res), res))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, res, err := DecodeStoredPayload(data)
		runtime.ReadMemStats(&after)
		// The decoded RunRecord and Result plus error text are the fixed
		// cost; every slice, string and pointer is paid for in input bytes.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(4*len(data)+16<<10) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		again := encodePayload(&rec, &res)
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes differently (%d vs %d bytes)", len(again), len(data))
		}
		if _, _, err := DecodeStoredPayload(again); err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
	})
}
