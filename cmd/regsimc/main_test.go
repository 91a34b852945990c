package main

// Tests for the submit path: 429 responses are retried with the server's
// Retry-After hint honoured, 413 is permanent and never retried, the
// retry budget is finite, and malformed sweeps never leave the client.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"regcache/internal/sim"
)

func TestPostSweepRetriesOn429(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0") // RFC 9110: retry immediately
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	resp, data, err := postJSON(ts.URL, "/v1/sweep", []byte(`{}`), 4)
	if err != nil {
		t.Fatalf("postJSON: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after retries, want 200", resp.StatusCode)
	}
	if string(data) != `{"ok":true}` {
		t.Fatalf("body %q", data)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("%d requests, want 3 (two sheds + success)", got)
	}
}

func TestPostSweepHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	var gap time.Duration
	var last time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		if calls.Add(1) == 1 {
			last = now
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		gap = now.Sub(last)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	if _, _, err := postJSON(ts.URL, "/v1/sweep", nil, 1); err != nil {
		t.Fatalf("postJSON: %v", err)
	}
	// 1s hint, jittered to at least 750ms — far above the 500ms default
	// backoff, proving the header was used.
	if gap < 700*time.Millisecond {
		t.Fatalf("retry arrived after %v, want >= ~750ms (Retry-After honoured)", gap)
	}
}

// TestPostSweepHonorsRetryAfterHTTPDate pins the RFC 9110 second form of
// the header: an HTTP-date. The old client parsed only integer seconds and
// silently fell back to its 500ms default backoff, retrying well before
// the server asked it to.
func TestPostSweepHonorsRetryAfterHTTPDate(t *testing.T) {
	var calls atomic.Int32
	var gap time.Duration
	var last time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		if calls.Add(1) == 1 {
			last = now
			w.Header().Set("Retry-After", now.Add(1200*time.Millisecond).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		gap = now.Sub(last)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	if _, _, err := postJSON(ts.URL, "/v1/sweep", nil, 1); err != nil {
		t.Fatalf("postJSON: %v", err)
	}
	// HTTP-date truncates to whole seconds, so the resolved wait is
	// somewhere in (200ms, 1.2s]; jittered down to at worst 75%. Anything
	// past the ~150ms floor proves the date form was parsed rather than
	// ignored (the ignored-header backoff would also be 500ms, so pin the
	// retry happening at all *and* the parse unit tests pin the values).
	if gap < 150*time.Millisecond {
		t.Fatalf("retry arrived after %v, want the HTTP-date honoured", gap)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d requests, want 2", got)
	}
}

// TestServerErrorRetryAfterMessage pins the fixed diagnostic: the old code
// blindly appended "s" to the raw header ("retry after Mon, 02 Jan...s");
// the message now reports the resolved duration for either header form.
func TestServerErrorRetryAfterMessage(t *testing.T) {
	mk := func(ra string) *http.Response {
		h := http.Header{}
		if ra != "" {
			h.Set("Retry-After", ra)
		}
		return &http.Response{
			Status:     "429 Too Many Requests",
			StatusCode: http.StatusTooManyRequests,
			Header:     h,
		}
	}
	if got := serverError(mk("7"), []byte(`{"error":"queue full"}`)).Error(); !strings.Contains(got, "retry after 7s") {
		t.Errorf("seconds form: %q, want it to mention %q", got, "retry after 7s")
	}
	date := time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat)
	if got := serverError(mk(date), []byte(`{"error":"queue full"}`)).Error(); !strings.Contains(got, "retry after") || strings.Contains(got, date+"s") {
		t.Errorf("date form: %q, want a resolved duration, not the raw date with an s suffix", got)
	}
	if got := serverError(mk(""), []byte(`{"error":"queue full"}`)).Error(); strings.Contains(got, "retry after") {
		t.Errorf("no header: %q, want no retry hint", got)
	}
}

func TestPostSweepRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	resp, _, err := postJSON(ts.URL, "/v1/sweep", nil, 2)
	if err != nil {
		t.Fatalf("postJSON: %v", err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the final 429 surfaced", resp.StatusCode)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("%d requests, want 3 (initial + 2 retries)", got)
	}
}

func TestPostSweepNeverRetries413(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusRequestEntityTooLarge)
	}))
	defer ts.Close()

	resp, _, err := postJSON(ts.URL, "/v1/sweep", nil, 5)
	if err != nil {
		t.Fatalf("postJSON: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d requests, want 1 (413 is permanent)", got)
	}
}

// TestServerErrorIncludesRequestID: diagnostics quote the server-assigned
// X-Request-Id so an operator can jump from the client error straight to
// the daemon's matching log line and /debug/flight trace.
func TestServerErrorIncludesRequestID(t *testing.T) {
	resp := &http.Response{
		Status:     "503 Service Unavailable",
		StatusCode: http.StatusServiceUnavailable,
		Header:     http.Header{"X-Request-Id": []string{"r-deadbeefcafe0123"}},
	}
	err := serverError(resp, []byte(`{"error":"draining"}`))
	for _, want := range []string{"503", "req r-deadbeefcafe0123", "draining"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestRequestIDSuffix(t *testing.T) {
	with := &http.Response{Header: http.Header{"X-Request-Id": []string{"abc"}}}
	if got := requestIDSuffix(with); got != ", req abc" {
		t.Errorf("suffix = %q", got)
	}
	without := &http.Response{Header: http.Header{}}
	if got := requestIDSuffix(without); got != "" {
		t.Errorf("suffix without header = %q, want empty", got)
	}
}

// TestRetryLineQuotesRequestID: the 429 retry/backoff notice names the
// request ID of the shed response it is waiting out.
func TestRetryLineQuotesRequestID(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("X-Request-Id", "r-shed1")
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	old := os.Stderr
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = wr
	_, _, perr := postJSON(ts.URL, "/v1/sweep", []byte(`{}`), 2)
	wr.Close()
	os.Stderr = old
	captured, _ := io.ReadAll(rd)
	if perr != nil {
		t.Fatalf("postJSON: %v", perr)
	}
	if !strings.Contains(string(captured), "req r-shed1") {
		t.Errorf("retry line does not quote the shed request ID: %q", captured)
	}
}

func TestTimingSummary(t *testing.T) {
	cases := []struct {
		rec  sim.TimingRecord
		want []string
		not  []string
	}{
		{sim.TimingRecord{Outcome: "simulated", QueueWaitMS: 1.25, SimMS: 40.5, StitchMS: 2.5},
			[]string{"simulated", "queue 1.2ms", "sim 40.5ms", "stitch 2.5ms"}, nil},
		{sim.TimingRecord{Outcome: "simulated", QueueWaitMS: 0, SimMS: 3},
			[]string{"sim 3.0ms"}, []string{"stitch"}},
		{sim.TimingRecord{Outcome: "store", StoreLookupMS: 0.5},
			[]string{"store", "lookup 0.5ms"}, []string{"sim "}},
		{sim.TimingRecord{Outcome: "coalesced", QueueWaitMS: 9},
			[]string{"coalesced", "queue 9.0ms"}, []string{"sim ", "lookup"}},
	}
	for _, c := range cases {
		got := timingSummary(&c.rec)
		for _, w := range c.want {
			if !strings.Contains(got, w) {
				t.Errorf("timingSummary(%+v) = %q, missing %q", c.rec, got, w)
			}
		}
		for _, n := range c.not {
			if strings.Contains(got, n) {
				t.Errorf("timingSummary(%+v) = %q, should not contain %q", c.rec, got, n)
			}
		}
	}
}

// TestPostSweepRetriesOn503Drain: a draining node sheds with 503 +
// Retry-After; the client must treat it exactly like a 429 — wait out the
// hint and retry — because a drain is transient (the node restarts, or a
// fleet gateway recovers capacity).
func TestPostSweepRetriesOn503Drain(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	resp, data, err := postJSON(ts.URL, "/v1/sweep", []byte(`{}`), 4)
	if err != nil {
		t.Fatalf("postJSON: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after drain retries, want 200", resp.StatusCode)
	}
	if string(data) != `{"ok":true}` {
		t.Fatalf("body %q", data)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("%d requests, want 3 (two drain sheds + success)", got)
	}
}

// TestPostSweep503HonorsRetryAfter: the drain hint is waited out, same as
// the 429 path.
func TestPostSweep503HonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	var gap time.Duration
	var last time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		if calls.Add(1) == 1 {
			last = now
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		gap = now.Sub(last)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	if _, _, err := postJSON(ts.URL, "/v1/sweep", nil, 1); err != nil {
		t.Fatalf("postJSON: %v", err)
	}
	if gap < 700*time.Millisecond {
		t.Fatalf("retry arrived after %v, want >= ~750ms (drain Retry-After honoured)", gap)
	}
}

// TestShedStatus pins exactly which statuses the client treats as
// transient shedding: 429 and 503, nothing else.
func TestShedStatus(t *testing.T) {
	cases := []struct {
		code int
		shed bool
	}{
		{http.StatusOK, false},
		{http.StatusAccepted, false},
		{http.StatusBadRequest, false},
		{http.StatusRequestEntityTooLarge, false}, // permanent: the sweep can never fit
		{http.StatusTooManyRequests, true},
		{http.StatusInternalServerError, false},
		{http.StatusBadGateway, false}, // fleet exhausted the ring; retrying won't help now
		{http.StatusServiceUnavailable, true},
		{http.StatusGatewayTimeout, false},
	}
	for _, c := range cases {
		if got := shedStatus(c.code); got != c.shed {
			t.Errorf("shedStatus(%d) = %v, want %v", c.code, got, c.shed)
		}
	}
}

// TestSubmitRejectsBeforeSending replays the run-contract rejection table
// shared with internal/sim and internal/serve through regsimc submit:
// every row fails client-side with an error naming its field and
// classified for exit status 2, and no request ever reaches a server.
// Rows carrying scheme records have no flag form and are skipped. Every
// subcommand refuses a comma-separated -server list the same way (a fleet
// is reached through one regsimd -peers gateway). A valid request that the
// server refuses, or that never reaches a server, keeps exit status 1.
func TestSubmitRejectsBeforeSending(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("server received %s %s for a request the client should have rejected", r.Method, r.URL.Path)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	data, err := os.ReadFile("../../internal/sim/testdata/rejected_sweeps.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name    string           `json:"name"`
		Field   string           `json:"field"`
		Request sim.SweepRequest `json:"request"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	type rejection struct {
		name, field string
		args        []string
	}
	var cases []rejection
	for _, row := range rows {
		req := row.Request
		if len(req.SchemeRecords) > 0 {
			continue
		}
		benches, schemes := "gzip", "use:16x2"
		if len(req.Benches) > 0 {
			benches = strings.Join(req.Benches, ",")
		}
		if len(req.Schemes) > 0 {
			schemes = strings.Join(req.Schemes, ",")
		}
		cases = append(cases, rejection{row.Name, row.Field, []string{
			"-server", ts.URL, "-benches", benches, "-schemes", schemes,
			"-intervals", strconv.Itoa(req.Intervals),
			"-threads", strconv.Itoa(req.Threads),
			"-interleave", strconv.Itoa(req.Interleave),
		}})
	}
	for _, c := range cases {
		err := cmdSubmit(c.args)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.field)
		}
		if err != nil && exitCode(err) != 2 {
			t.Errorf("%s: exit status %d for a client-side rejection, want 2", c.name, exitCode(err))
		}
	}

	list := ts.URL + "," + ts.URL
	for _, c := range []struct {
		name string
		cmd  func([]string) error
		args []string
	}{
		{"submit", cmdSubmit, []string{"-benches", "gzip", "-schemes", "use:16x2"}},
		{"explore", cmdExplore, []string{"-entries", "16,32"}},
		{"status", cmdStatus, []string{"-job", "j-1"}},
		{"fetch", cmdFetch, []string{"-job", "j-1"}},
	} {
		err := c.cmd(append([]string{"-server", list}, c.args...))
		if err == nil || !strings.Contains(err.Error(), "-server") {
			t.Errorf("%s with a server list: error %v, want one naming -server", c.name, err)
		} else if code := exitCode(err); code != 2 {
			t.Errorf("%s with a server list: exit status %d, want 2", c.name, code)
		}
	}

	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad sweep", http.StatusBadRequest)
	}))
	defer refusing.Close()
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	for _, server := range []string{refusing.URL, closed.URL} {
		err := cmdSubmit([]string{"-server", server, "-benches", "gzip", "-schemes", "use:16x2", "-max-retries", "0"})
		if err == nil {
			t.Fatalf("submit to %s: no error", server)
		}
		if code := exitCode(err); code != 1 {
			t.Errorf("submit to %s: exit status %d for %v, want 1", server, code, err)
		}
	}
}
