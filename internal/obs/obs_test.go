package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// recorder is a Tracer that captures events for assertions.
type recorder struct {
	cache []CacheEvent
	pipe  []PipeEvent
}

func (r *recorder) TraceCache(e CacheEvent) { r.cache = append(r.cache, e) }
func (r *recorder) TracePipe(e PipeEvent)   { r.pipe = append(r.pipe, e) }

func TestCombine(t *testing.T) {
	if Combine() != nil {
		t.Error("Combine() of nothing should be nil (the disabled path)")
	}
	a := &recorder{}
	if Combine(a) != Tracer(a) {
		t.Error("Combine of one tracer should return it directly")
	}
	b := &recorder{}
	m := Combine(a, b)
	m.TraceCache(CacheEvent{Kind: CacheHit, PReg: 7})
	m.TracePipe(PipeEvent{Stage: StageRetire, Seq: 3})
	for i, r := range []*recorder{a, b} {
		if len(r.cache) != 1 || r.cache[0].PReg != 7 {
			t.Errorf("tracer %d: cache events %v", i, r.cache)
		}
		if len(r.pipe) != 1 || r.pipe[0].Seq != 3 {
			t.Errorf("tracer %d: pipe events %v", i, r.pipe)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := CacheEventKind(0); k < NumCacheEventKinds; k++ {
		if s := k.String(); s == "" || strings.Contains(s, "?") {
			t.Errorf("CacheEventKind(%d).String() = %q", k, s)
		}
	}
	for s := PipeStage(0); s <= StageSquash; s++ {
		if n := s.String(); n == "" || strings.Contains(n, "?") {
			t.Errorf("PipeStage(%d).String() = %q", s, n)
		}
	}
	if !StageRetire.Terminal() || !StageSquash.Terminal() || StageIssue.Terminal() {
		t.Error("Terminal() misclassifies stages")
	}
	if MissKindName(0) != "filtered" || MissKindName(1) != "capacity" || MissKindName(2) != "conflict" {
		t.Error("MissKindName misaligned with core.MissKind values")
	}
}

func TestChromeTraceOutput(t *testing.T) {
	var buf bytes.Buffer
	ct := NewChromeTrace(&buf, true)
	// One uop through a full life; a second squashed mid-flight; one cache
	// instant on the reserved lane.
	ct.TracePipe(PipeEvent{Cycle: 10, Stage: StageRename, Seq: 1, PC: 0x1000, Op: "ialu"})
	ct.TracePipe(PipeEvent{Cycle: 12, Stage: StageDispatch, Seq: 1, PC: 0x1000, Op: "ialu"})
	ct.TracePipe(PipeEvent{Cycle: 11, Stage: StageRename, Seq: 2, PC: 0x1004, Op: "load"})
	ct.TraceCache(CacheEvent{Cycle: 13, Kind: CacheMiss, PReg: 5, MissKind: 2})
	ct.TracePipe(PipeEvent{Cycle: 15, Stage: StageRetire, Seq: 1, PC: 0x1000, Op: "ialu"})
	ct.TracePipe(PipeEvent{Cycle: 14, Stage: StageSquash, Seq: 2, PC: 0x1004, Op: "load"})
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	var slices, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			slices++
			if e.Dur < 0 {
				t.Errorf("negative-duration slice: %+v", e)
			}
			if e.Tid == 0 {
				t.Errorf("pipeline slice on the reserved cache lane: %+v", e)
			}
		case "i":
			instants++
			if e.Tid != 0 {
				t.Errorf("cache instant off the reserved lane: %+v", e)
			}
		}
	}
	// uop 1: rename, dispatch, retire; uop 2: rename, squash.
	if slices != 5 {
		t.Errorf("got %d X slices, want 5", slices)
	}
	if instants != 1 {
		t.Errorf("got %d instants, want 1", instants)
	}
	// Both uops terminated, so both lanes were recycled: peak is 2.
	if ct.Lanes() != 2 {
		t.Errorf("peak lanes = %d, want 2", ct.Lanes())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.CounterFunc("jobs", c.Value)
	c.Add(3)
	r.Gauge("rate", func() float64 { return 0.5 })
	h := r.Histogram("wall")
	h.Add(10)
	h.Add(20)

	snap := r.Snapshot()
	if snap["jobs"] != uint64(3) {
		t.Errorf("counter snapshot = %v", snap["jobs"])
	}
	if snap["rate"] != 0.5 {
		t.Errorf("gauge snapshot = %v", snap["rate"])
	}
	hs, ok := snap["wall"].(map[string]any)
	if !ok || hs["n"] != uint64(2) {
		t.Errorf("histogram snapshot = %v", snap["wall"])
	}

	// Re-registering a name replaces it rather than panicking (stats
	// objects re-register across runs).
	r.Gauge("rate", func() float64 { return 1.0 })
	if r.Snapshot()["rate"] != 1.0 {
		t.Error("re-registered gauge did not replace")
	}

	// Snapshot must marshal: this is what expvar serves.
	if _, err := json.Marshal(r.Snapshot()); err != nil {
		t.Fatalf("snapshot not marshallable: %v", err)
	}
}

// TestDebugServer starts two debug servers in one process — impossible
// under the old http.DefaultServeMux implementation, which panicked on
// the second route registration — and verifies each serves independently
// and that Close takes down only its own listener.
func TestDebugServer(t *testing.T) {
	a, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("second debug server in one process: %v", err)
	}
	if a.Addr() == b.Addr() {
		t.Fatalf("both servers bound %s", a.Addr())
	}

	get := func(addr, path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s%s: %v", addr, path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	for _, srv := range []*DebugServer{a, b} {
		if code, body := get(srv.Addr(), "/debug/vars"); code != 200 || !strings.HasPrefix(body, "{") {
			t.Errorf("%s/debug/vars: code %d body %q", srv.Addr(), code, body[:min(len(body), 40)])
		}
		if code, _ := get(srv.Addr(), "/metrics"); code != 200 {
			t.Errorf("%s/metrics: code %d", srv.Addr(), code)
		}
		if code, body := get(srv.Addr(), "/debug/flight"); code != 200 || !strings.HasPrefix(body, "{") {
			t.Errorf("%s/debug/flight: code %d body %q", srv.Addr(), code, body[:min(len(body), 40)])
		}
	}

	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + b.Addr() + "/debug/vars"); err == nil {
		t.Error("closed server still accepting connections")
	}
	// The sibling is unaffected.
	if code, _ := get(a.Addr(), "/debug/vars"); code != 200 {
		t.Errorf("sibling server broken by Close: code %d", code)
	}
}
