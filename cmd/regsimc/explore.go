package main

// regsimc explore: submit a design-space search to POST /v1/explore and
// render the resulting Pareto frontier. Axis flags take either a comma
// list ("16,32,64") or a min:max:step range ("16:64:16"); the request is
// validated client-side for fast feedback and re-validated by the server.
//
//	regsimc explore -benches gzip,mcf -entries 16,32,64 -ways 1,2,4 \
//	    -index preg,rr,filtered -strategy halving -insts 200000
//
// Async submissions print a job ID; fetch the settled document with
// "regsimc fetch" and validate it offline with "checkresults -explore".

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"regcache/cmd/internal/cli"
	"regcache/internal/explore"
	"regcache/internal/sim"
)

// readAll drains and closes a response body.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func cmdExplore(args []string) error {
	fs, server := flagSet("explore")
	benches := fs.String("benches", "gzip", `comma-separated benchmarks, or "all"`)
	entries := fs.String("entries", "", "cache-entries axis: comma list or min:max:step")
	ways := fs.String("ways", "1", "associativity axis: comma list or min:max:step")
	kinds := fs.String("kinds", "", "comma-separated cache kinds (use,lru,nb); default use")
	index := fs.String("index", "", "comma-separated index policies (preg,rr,min,filtered); default filtered")
	maxPRegs := fs.String("maxpregs", "", "optional MaxPRegs axis: comma list or min:max:step")
	maxUse := fs.String("maxuse", "", "optional MaxUse axis: comma list or min:max:step")
	portsAx := fs.String("ports", "", "optional backing read-port axis (0 = the default single port): comma list or min:max:step")
	threadsAx := fs.String("threads", "", "optional workload thread-count axis: comma list or min:max:step")
	strategy := fs.String("strategy", "", "grid (default) or halving")
	insts := fs.Uint64("insts", 0, "full per-benchmark budget (0 = server default)")
	minInsts := fs.Uint64("min-insts", 0, "halving first-rung budget (0 = insts/8)")
	eta := fs.Int("eta", 0, "halving cut factor: each rung keeps 1/eta (0 = 2)")
	deadline := fs.Duration("deadline", 0, "per-request deadline (0 = server default)")
	async := fs.Bool("async", false, "submit asynchronously and print the job ID")
	out := fs.String("o", "", "save the exploration document to this file")
	maxRetries := fs.Int("max-retries", 4, "retries when the server sheds load with 429 (0 = fail immediately)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *entries == "" {
		return invalidRequest{fmt.Errorf("explore needs -entries (comma list or min:max:step)")}
	}
	spec := explore.Spec{
		Strategy: *strategy,
		Insts:    *insts,
		MinInsts: *minInsts,
		Eta:      *eta,
	}
	var err error
	if spec.Space.Entries, err = parseAxis(*entries); err != nil {
		return invalidRequest{fmt.Errorf("-entries: %w", err)}
	}
	if spec.Space.Ways, err = parseAxis(*ways); err != nil {
		return invalidRequest{fmt.Errorf("-ways: %w", err)}
	}
	spec.Space.Kinds = cli.SplitList(*kinds)
	spec.Space.Index = cli.SplitList(*index)
	if *maxPRegs != "" {
		ax, err := parseAxis(*maxPRegs)
		if err != nil {
			return invalidRequest{fmt.Errorf("-maxpregs: %w", err)}
		}
		spec.Space.MaxPRegs = &ax
	}
	if *maxUse != "" {
		ax, err := parseAxis(*maxUse)
		if err != nil {
			return invalidRequest{fmt.Errorf("-maxuse: %w", err)}
		}
		spec.Space.MaxUse = &ax
	}
	if *portsAx != "" {
		ax, err := parseAxis(*portsAx)
		if err != nil {
			return invalidRequest{fmt.Errorf("-ports: %w", err)}
		}
		spec.Space.Ports = &ax
	}
	if *threadsAx != "" {
		ax, err := parseAxis(*threadsAx)
		if err != nil {
			return invalidRequest{fmt.Errorf("-threads: %w", err)}
		}
		spec.Space.Threads = &ax
	}
	// Client-side validation for fast feedback (the server re-checks).
	if err := spec.WithDefaults().Validate(); err != nil {
		return invalidRequest{err}
	}
	benchList := cli.SplitList(*benches)
	if _, err := sim.ResolveBenches(benchList); err != nil {
		return invalidRequest{err}
	}
	req := struct {
		explore.Spec
		Benches    []string `json:"benches"`
		Async      bool     `json:"async,omitempty"`
		DeadlineMS int64    `json:"deadline_ms,omitempty"`
	}{Spec: spec, Benches: benchList, Async: *async}
	if *deadline > 0 {
		req.DeadlineMS = deadline.Milliseconds()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, data, err := postJSON(*server, "/v1/explore", body, *maxRetries)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return reportExplore(data, *out)
	case http.StatusAccepted:
		var st struct {
			ID     string `json:"id"`
			Status string `json:"status"`
			Points int    `json:"points"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return fmt.Errorf("parsing job response: %w", err)
		}
		if *async {
			fmt.Printf("job %s accepted (%d evaluations, %s)\n", st.ID, st.Points, st.Status)
			fmt.Printf("poll:  regsimc status -server %s -job %s -wait 10s\n", *server, st.ID)
			fmt.Printf("fetch: regsimc fetch -server %s -job %s -o explore.json\n", *server, st.ID)
			return nil
		}
		// The schedule was too large for the sync path; long-poll the job
		// to settlement and render the document as if it had been sync.
		fmt.Fprintf(os.Stderr, "regsimc: job %s accepted (%d evaluations), polling\n", st.ID, st.Points)
		doc, err := pollExplore(*server, st.ID)
		if err != nil {
			return err
		}
		return reportExplore(doc, *out)
	default:
		return serverError(resp, data)
	}
}

// pollExplore long-polls a job until it settles, then fetches its
// exploration document.
func pollExplore(server, id string) ([]byte, error) {
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s?wait=10s", server, id))
		if err != nil {
			return nil, err
		}
		data, err := readAll(resp)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, serverError(resp, data)
		}
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, fmt.Errorf("parsing job status: %w", err)
		}
		switch st.Status {
		case "running":
			continue
		case "failed":
			return nil, fmt.Errorf("job %s failed: %s", id, st.Error)
		}
		resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/results", server, id))
		if err != nil {
			return nil, err
		}
		doc, err := readAll(resp)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, serverError(resp, doc)
		}
		return doc, nil
	}
}

// parseAxis accepts "16,32,64" (value list) or "16:64:16" (min:max:step).
func parseAxis(s string) (explore.Axis, error) {
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return explore.Axis{}, fmt.Errorf("range form is min:max:step, got %q", s)
		}
		var vals [3]int
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return explore.Axis{}, fmt.Errorf("bad range bound %q", p)
			}
			vals[i] = v
		}
		return explore.Axis{Min: vals[0], Max: vals[1], Step: vals[2]}, nil
	}
	var values []int
	for _, p := range cli.SplitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return explore.Axis{}, fmt.Errorf("bad axis value %q", p)
		}
		values = append(values, v)
	}
	return explore.Axis{Values: values}, nil
}

// reportExplore renders the frontier table, the dominated/eliminated
// tallies, and the rung schedule, then optionally saves the document.
func reportExplore(data []byte, out string) error {
	var res explore.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("parsing exploration document: %w", err)
	}
	if err := explore.ValidateResult(&res); err != nil {
		return fmt.Errorf("exploration document fails validation: %w", err)
	}
	fmt.Printf("explored %d candidates (%s, %s objective, %s cost model)\n",
		len(res.Points), res.Strategy, res.Objective, res.CostModel)
	for _, r := range res.Rungs {
		fmt.Printf("  rung %d: %d candidates at %d insts, %d advance\n",
			r.Rung, r.Candidates, r.Insts, r.Survivors)
	}
	fmt.Println("frontier (cheapest first):")
	for _, idx := range res.Frontier {
		p := res.Points[idx]
		fmt.Printf("  %-28s cost %12.0f  %s %.4f\n", p.Scheme.Name, p.Cost, res.Objective, p.Objective)
	}
	var dominated, eliminated int
	byRung := map[int]int{}
	for _, p := range res.Points {
		switch p.Status {
		case explore.StatusDominated:
			dominated++
		case explore.StatusEliminated:
			eliminated++
			byRung[p.EliminatedAtRung]++
		}
	}
	line := fmt.Sprintf("%d on frontier, %d dominated, %d eliminated", len(res.Frontier), dominated, eliminated)
	if eliminated > 0 {
		rungs := make([]int, 0, len(byRung))
		for r := range byRung {
			rungs = append(rungs, r)
		}
		sort.Ints(rungs)
		parts := make([]string, 0, len(rungs))
		for _, r := range rungs {
			parts = append(parts, fmt.Sprintf("%d at rung %d", byRung[r], r))
		}
		line += " (" + strings.Join(parts, ", ") + ")"
	}
	if res.SkippedInvalid > 0 {
		line += fmt.Sprintf("; %d invalid combinations skipped", res.SkippedInvalid)
	}
	fmt.Println(line)
	if out != "" {
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("saved %s\n", out)
	}
	return nil
}
