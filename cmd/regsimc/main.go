// Command regsimc is the regsimd client: it submits sweep jobs, polls
// job status, and fetches results documents, so EXPERIMENTS.md recipes
// can run end-to-end against the daemon instead of cmd/experiments.
//
// Usage:
//
//	regsimc submit -server http://localhost:8080 -benches gzip,mcf -schemes use:64x2,mono:3
//	regsimc submit -benches all -schemes use:64x2:filtered -async
//	regsimc status -job j-1 -wait 5s
//	regsimc fetch  -job j-1 -o results.json
//
// Sync submissions print a per-run summary table and optionally save the
// results file with -o; async submissions print the job ID for later
// status/fetch calls.
//
// The exit status is 2 for a request the client refuses before sending
// anything (bad flags, run options or explore spec), as for regsim, and 1
// for transport and server errors.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"regcache/cmd/internal/cli"
	"regcache/internal/fleet"
	"regcache/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "explore":
		err = cmdExplore(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "fetch":
		err = cmdFetch(os.Args[2:])
	case "help", "-h", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "regsimc: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "regsimc: %v\n", err)
		os.Exit(exitCode(err))
	}
}

// invalidRequest marks an error the client finds before sending anything:
// a request it refuses to build. main exits 2 on it, as regsim does for a
// bad option; transport and server errors exit 1.
type invalidRequest struct{ error }

func (e invalidRequest) Unwrap() error { return e.error }

// exitCode maps a subcommand error to the process exit status.
func exitCode(err error) int {
	if errors.As(err, new(invalidRequest)) {
		return 2
	}
	return 1
}

func usage() {
	fmt.Fprintln(os.Stderr, `regsimc <submit|explore|status|fetch> [flags]

submit: POST a sweep (scheme x benchmark matrix) to regsimd
  -server URL   regsimd base URL (default http://localhost:8080); for a
                multi-node sweep, name one regsimd started with -peers
  -benches s    comma-separated benchmark names, or "all"
  -schemes s    comma-separated scheme specs (e.g. use:64x2:filtered,mono:3)
  -insts n      per-benchmark instruction budget (0 = server default)
  -threads n    multithreaded workload contexts per run (0/1 = single)
  -interleave n fetch-interleave granularity when -threads > 1
  -deadline d   per-request deadline (e.g. 30s)
  -async        request a job ID instead of waiting
  -timings      request per-point timing blocks and print a latency table
  -o file       save the results JSON (sync submissions)
  -max-retries n  retries on 429 load-shed, honouring Retry-After (413 is
                  permanent and never retried)

explore: POST a design-space search to regsimd and render the Pareto
frontier (see "regsimc explore -h" for the axis flags)
  -entries a    cache-entries axis: comma list (16,32,64) or min:max:step
  -ways a       associativity axis, same forms
  -kinds s      cache kinds to cross (use,lru,nb); default use
  -index s      index policies to cross (preg,rr,min,filtered); default filtered
  -maxpregs a   optional MaxPRegs axis, -maxuse a  optional MaxUse axis
  -ports a      optional backing read-port axis (0 = the default single port)
  -threads a    optional workload thread-count axis (1..4)
  -strategy s   grid | halving
  -insts n      full budget; -min-insts n first-rung budget; -eta n cut factor
  -benches, -deadline, -async, -o, -max-retries as for submit

status: report a job's state
  -server URL, -job id, -wait d (long-poll up to d)

fetch: download a finished job's results document
  -server URL, -job id, -o file`)
}

// flagSet builds a subcommand flag set with the shared -server flag.
func flagSet(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("regsimc "+name, flag.ExitOnError)
	server := fs.String("server", "http://localhost:8080", "regsimd base URL")
	return fs, server
}

func cmdSubmit(args []string) error {
	fs, server := flagSet("submit")
	benches := fs.String("benches", "gzip", `comma-separated benchmarks, or "all"`)
	schemes := fs.String("schemes", "use:64x2:filtered", "comma-separated scheme specs")
	insts := fs.Uint64("insts", 0, "per-benchmark instruction budget (0 = server default)")
	runOpts := cli.BindRunOptions(fs)
	deadline := fs.Duration("deadline", 0, "per-request deadline (0 = server default)")
	async := fs.Bool("async", false, "submit asynchronously and print the job ID")
	timings := fs.Bool("timings", false, "request per-point timing breakdowns (queue wait, store lookup, simulate, stitch)")
	out := fs.String("o", "", "save the results JSON to this file")
	maxRetries := fs.Int("max-retries", 4, "retries when the server sheds load with 429 (0 = fail immediately)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if strings.Contains(*server, ",") {
		return invalidRequest{fmt.Errorf("-server takes one URL, got %q: to spread a sweep over several nodes, submit it to one regsimd started with -peers (the fleet gateway)", *server)}
	}
	req := sim.SweepRequest{
		Benches:    cli.SplitList(*benches),
		Schemes:    cli.SplitList(*schemes),
		Async:      *async,
		DeadlineMS: deadline.Milliseconds(),
		Timings:    *timings,
	}
	req.SetOptions(runOpts.Options(*insts))
	// Resolve client-side for fast feedback: the server runs the same
	// resolve step, so a request it would refuse as malformed is never
	// sent.
	if _, err := req.Resolve(); err != nil {
		return invalidRequest{err}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, data, err := postJSON(*server, "/v1/sweep", body, *maxRetries)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return reportResults(data, *out)
	case http.StatusAccepted:
		var st struct {
			ID     string `json:"id"`
			Status string `json:"status"`
			Points int    `json:"points"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return fmt.Errorf("parsing job response: %w", err)
		}
		fmt.Printf("job %s accepted (%d points, %s)\n", st.ID, st.Points, st.Status)
		fmt.Printf("poll:  regsimc status -server %s -job %s -wait 10s\n", *server, st.ID)
		fmt.Printf("fetch: regsimc fetch -server %s -job %s -o results.json\n", *server, st.ID)
		return nil
	default:
		return serverError(resp, data)
	}
}

// shedStatus reports whether a response status is a transient shed worth
// retrying: 429 (queue full) and 503 (draining — the node behind this
// URL is restarting; its successor will accept). Both carry Retry-After.
func shedStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// postJSON posts a request document, retrying up to maxRetries times when
// the server sheds load with 429 or refuses with a drain 503. Each wait
// honours the server's Retry-After hint when present (otherwise
// exponential backoff from 500ms), capped at 30s, with ±25% jitter so a
// fleet of shed clients does not re-arrive in lockstep. 413 (request can
// never fit the admission queue) is permanent and is never retried;
// neither is any other status — those are the caller's problem.
func postJSON(server, path string, body []byte, maxRetries int) (*http.Response, []byte, error) {
	const (
		baseBackoff = 500 * time.Millisecond
		maxBackoff  = 30 * time.Second
	)
	backoff := baseBackoff
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(server+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		if !shedStatus(resp.StatusCode) || attempt >= maxRetries {
			return resp, data, nil
		}
		wait := backoff
		if d, ok := fleet.ParseRetryAfter(resp.Header.Get("Retry-After")); ok {
			wait = d
		}
		if wait > maxBackoff {
			wait = maxBackoff
		}
		// Jitter to 75%..125% of the nominal wait.
		wait += time.Duration((rand.Float64() - 0.5) * 0.5 * float64(wait))
		// The shed response carries the server-assigned request ID; print
		// it so the retry can be matched to the server's flight recorder
		// and logs.
		reason := "busy (429"
		if resp.StatusCode == http.StatusServiceUnavailable {
			reason = "draining (503"
		}
		fmt.Fprintf(os.Stderr, "regsimc: server %s%s), retry %d/%d in %s\n",
			reason, requestIDSuffix(resp), attempt+1, maxRetries, wait.Round(10*time.Millisecond))
		time.Sleep(wait)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

func cmdStatus(args []string) error {
	fs, server := flagSet("status")
	job := fs.String("job", "", "job ID")
	wait := fs.Duration("wait", 0, "long-poll up to this duration")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *job == "" {
		return invalidRequest{fmt.Errorf("status needs -job")}
	}
	url := fmt.Sprintf("%s/v1/jobs/%s", *server, *job)
	if *wait > 0 {
		url += "?wait=" + wait.String()
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return serverError(resp, data)
	}
	fmt.Println(string(data))
	return nil
}

func cmdFetch(args []string) error {
	fs, server := flagSet("fetch")
	job := fs.String("job", "", "job ID")
	out := fs.String("o", "", "save the results JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *job == "" {
		return invalidRequest{fmt.Errorf("fetch needs -job")}
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/results", *server, *job))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return reportResults(data, *out)
	case http.StatusAccepted:
		fmt.Printf("job %s still running: %s\n", *job, strings.TrimSpace(string(data)))
		return nil
	default:
		return serverError(resp, data)
	}
}

// reportResults prints a per-run summary table and optionally saves the
// raw document.
func reportResults(data []byte, out string) error {
	var f sim.ResultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("parsing results: %w", err)
	}
	if f.SchemaVersion != sim.ResultsSchemaVersion {
		return fmt.Errorf("results schema version %d, want %d", f.SchemaVersion, sim.ResultsSchemaVersion)
	}
	for _, r := range f.Runs {
		line := fmt.Sprintf("%-28s %-10s ipc %.3f", r.Scheme.Name, r.Bench, r.IPC)
		if r.Cache != nil {
			line += fmt.Sprintf("  miss %.4f", r.Cache.MissRate)
		}
		if t := r.Timing; t != nil {
			line += "  " + timingSummary(t)
		}
		fmt.Println(line)
	}
	fmt.Printf("%d runs\n", len(f.Runs))
	if out != "" {
		if err := os.WriteFile(out, append(bytes.TrimRight(data, "\n"), '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("saved %s\n", out)
	}
	return nil
}

// requestIDSuffix renders the server-assigned X-Request-Id as ", req ID"
// for splicing into diagnostics ("" when absent). Every regsimd response
// — including sheds — carries one; quoting it lets the operator jump
// straight to the matching trace in GET /debug/flight and the matching
// request_id in the daemon's logs.
func requestIDSuffix(resp *http.Response) string {
	if id := resp.Header.Get("X-Request-Id"); id != "" {
		return ", req " + id
	}
	return ""
}

func serverError(resp *http.Response, data []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(data))
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		// The header may be either seconds or an HTTP-date; report the
		// resolved wait rather than echoing the raw value with a bogus
		// unit suffix.
		if d, ok := fleet.ParseRetryAfter(resp.Header.Get("Retry-After")); ok {
			msg += fmt.Sprintf(" (retry after %s)", d.Round(time.Second))
		}
	}
	return fmt.Errorf("server: %s%s: %s", resp.Status, requestIDSuffix(resp), msg)
}

// timingSummary renders a run's timing block as one compact column set:
// the outcome plus only the phases that apply to it (a coalesced point
// has no simulate time of its own, a store hit no stitch, etc.).
func timingSummary(t *sim.TimingRecord) string {
	parts := []string{t.Outcome, fmt.Sprintf("queue %.1fms", t.QueueWaitMS)}
	switch t.Outcome {
	case "store":
		parts = append(parts, fmt.Sprintf("lookup %.1fms", t.StoreLookupMS))
	case "simulated":
		parts = append(parts, fmt.Sprintf("sim %.1fms", t.SimMS))
		if t.StitchMS > 0 {
			parts = append(parts, fmt.Sprintf("stitch %.1fms", t.StitchMS))
		}
	}
	return strings.Join(parts, " ")
}
