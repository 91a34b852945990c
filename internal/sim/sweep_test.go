package sim

// Tests for the run contract: Options.Validate and ValidatePoint rule by
// rule, the SweepRequest ⇄ Options conversion, and the resolve step.
// testdata/rejected_sweeps.json is the rejection table the serve and
// regsimc tests replay against their own entry points.

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"regcache/internal/core"
)

// rejectedSweep is one row of testdata/rejected_sweeps.json: a sweep
// request every entry point must refuse, and the JSON field its error
// must name.
type rejectedSweep struct {
	Name    string          `json:"name"`
	Field   string          `json:"field"`
	Request json.RawMessage `json:"request"`
}

// loadRejectedSweeps reads the shared table.
func loadRejectedSweeps(t *testing.T) []rejectedSweep {
	t.Helper()
	data, err := os.ReadFile("testdata/rejected_sweeps.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []rejectedSweep
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// request decodes the row, filling in a benchmark and a scheme where the
// row leaves them out so that only the row's own rule can fail.
func (r rejectedSweep) request(t *testing.T) SweepRequest {
	t.Helper()
	req := SweepRequest{Benches: []string{"gzip"}}
	if err := json.Unmarshal(r.Request, &req); err != nil {
		t.Fatalf("%s: %v", r.Name, err)
	}
	if len(req.Schemes) == 0 && len(req.SchemeRecords) == 0 {
		req.Schemes = []string{"use:16x2"}
	}
	return req
}

// TestValidateRules runs every rule once: the shared rejection table
// through Resolve (each error must name its JSON field), the tracking
// rules that have no wire form through Validate, and the accepted side of
// each boundary.
func TestValidateRules(t *testing.T) {
	for _, row := range loadRejectedSweeps(t) {
		req := row.request(t)
		_, err := req.Resolve()
		if err == nil {
			t.Errorf("%s: resolved, want an error naming %q", row.Name, row.Field)
			continue
		}
		if !strings.Contains(err.Error(), row.Field) {
			t.Errorf("%s: error %q does not name %q", row.Name, err, row.Field)
		}
		if strings.Contains(row.Name, "two-level") && !strings.Contains(err.Error(), `scheme "`) {
			t.Errorf("%s: error %q does not name the scheme", row.Name, err)
		}
	}

	for _, tc := range []struct {
		field string
		o     Options
	}{
		{"intervals", Options{Intervals: 2, TrackLifetimes: true}},
		{"intervals", Options{Intervals: 2, TrackLive: true}},
		{"threads", Options{Threads: 2, TrackLifetimes: true}},
	} {
		if err := tc.o.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: error %v, want one naming %q", tc.o, err, tc.field)
		}
	}

	accepted := []struct {
		spec string
		o    Options
	}{
		{"use:16x2", Options{}},
		{"use:16x2", Options{Intervals: MaxIntervals, WarmupInsts: 100}},
		{"use:16x2", Options{Intervals: 1, Threads: 2}}, // one interval canonicalizes away
		{"use:16x2", Options{Threads: MaxThreads, Interleave: 4}},
		{"use:16x2", Options{Intervals: 1, TrackLifetimes: true, TrackLive: true}},
		{"twolevel:65", Options{}},
		{"twolevel:65", Options{Threads: 1}},
		{"twolevel:129", Options{Threads: 2}},
		{"twolevel:257", Options{Threads: 4}},
		{"mono:3", Options{Threads: 4}},
	}
	for _, tc := range accepted {
		s, err := ParseSchemeSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidatePoint(s, tc.o); err != nil {
			t.Errorf("%s %+v: %v, want accepted", tc.spec, tc.o, err)
		}
	}
}

// TestExecutionEntriesValidate: the run layer and the direct executor
// refuse invalid options instead of canonicalizing them away, and the
// two-level rule holds there too.
func TestExecutionEntriesValidate(t *testing.T) {
	r := NewRunnerWith(1, NewWorkloadCache())
	defer r.Close()
	use := UseBased(16, 2, core.IndexFilteredRR)
	for _, tc := range []struct {
		s Scheme
		o Options
	}{
		{use, Options{Insts: 1000, Threads: 2, Intervals: 4}},
		{use, Options{Insts: 1000, Intervals: -1}},
		{TwoLevel(64, 2), Options{Insts: 1000}},
		{TwoLevel(96, 2), Options{Insts: 1000, Threads: 2}},
	} {
		if _, err := r.Run(context.Background(), "gzip", tc.s, tc.o); err == nil {
			t.Errorf("Runner.Run(%s, %+v): no error", tc.s.Name, tc.o)
		}
		if _, err := Execute(DefaultWorkloads(), "gzip", tc.s, tc.o); err == nil {
			t.Errorf("Execute(%s, %+v): no error", tc.s.Name, tc.o)
		}
	}
	if st := r.Stats(); st.JobsRun != 0 || st.Errors != 0 {
		t.Errorf("refused points reached the pool: %+v", st)
	}
	if _, err := RunPipeline("gzip", use, Options{Threads: MaxThreads + 1}); err == nil {
		t.Error("RunPipeline accepted threads above MaxThreads")
	}
}

// TestSweepRequestOptionsRoundTrip: every Options field except the
// tracking flags survives Options → SweepRequest → JSON → SweepRequest →
// Options, so a field added to Options fails here until it is on the
// wire.
func TestSweepRequestOptionsRoundTrip(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		if field.Name == "TrackLifetimes" || field.Name == "TrackLive" {
			continue
		}
		var o Options
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Uint64:
			v.SetUint(7)
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("Options.%s: no test value for kind %s", field.Name, v.Kind())
		}
		var req SweepRequest
		req.SetOptions(o)
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var back SweepRequest
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if got := back.Options(); got != o {
			t.Errorf("Options.%s lost on the wire: sent %+v, got %+v (body %s)", field.Name, o, got, data)
		}
	}
}

func TestResolve(t *testing.T) {
	req := SweepRequest{
		Benches:       []string{"all"},
		Schemes:       []string{"use:64x2", "mono:3"},
		SchemeRecords: []SchemeRecord{NewSchemeRecord(TwoLevel(96, 2))},
		Insts:         5000,
		Timings:       true,
	}
	sw, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(sw.Schemes))
	for i, s := range sw.Schemes {
		names[i] = s.Name
	}
	if want := []string{"use-64x2-filtered", "rf-3cyc", "twolevel-96"}; !slices.Equal(names, want) {
		t.Errorf("schemes %v, want specs then records %v", names, want)
	}
	if !slices.Equal(sw.Benches, Benchmarks()) {
		t.Errorf(`["all"] resolved to %v`, sw.Benches)
	}
	if sw.Opts != (Options{Insts: 5000}) || !sw.Timings || sw.Points() != 3*len(Benchmarks()) {
		t.Errorf("resolved %+v", sw)
	}

	for name, bad := range map[string]SweepRequest{
		"no scheme":     {Benches: []string{"gzip"}},
		"bad spec":      {Benches: []string{"gzip"}, Schemes: []string{"use:64y2"}},
		"bad record":    {Benches: []string{"gzip"}, SchemeRecords: []SchemeRecord{{Name: "x", Kind: "warp"}}},
		"no bench":      {Schemes: []string{"mono"}},
		"unknown bench": {Benches: []string{"quake"}, Schemes: []string{"mono"}},
	} {
		if _, err := bad.Resolve(); err == nil {
			t.Errorf("%s: resolved", name)
		}
	}
}
