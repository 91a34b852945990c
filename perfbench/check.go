package main

// Output checks. They run after the measured phase, never inside it; a
// request whose reply was not 2xx, failed in transport or fails a check
// counts as failed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"regcache/internal/explore"
	"regcache/internal/sim"
)

// check validates every measured request and returns how many failed,
// printing the first few reasons to stderr.
func (b *bench) check(samples []sample) int {
	failed := 0
	for _, s := range samples {
		err := s.err
		if err == nil {
			err = b.checkOne(&s)
		}
		if err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "request %s failed: %v\n", s.req.id, err)
			}
		}
	}
	return failed
}

func (b *bench) checkOne(s *sample) error {
	switch {
	case s.req.stored >= 0:
		// Store hits must reproduce the simulated body byte for byte.
		if s.sum != b.fillSums[s.req.stored] {
			return fmt.Errorf("body differs from stored sweep %d's fill body", s.req.stored)
		}
		return nil
	case s.req.path == "/v1/explore":
		return checkExplore(s.req, s.body, b.plan)
	default:
		return checkSweep(s.req, s.body)
	}
}

// checkSweep validates a sweep document: exactly one run per requested
// (scheme, benchmark), each retiring its whole budget, with cache reads
// split exactly into hits and misses and per-thread retired counts
// summing to the machine's.
func checkSweep(r *request, body []byte) error {
	var f sim.ResultsFile
	if err := json.Unmarshal(body, &f); err != nil {
		return fmt.Errorf("decode sweep document: %w", err)
	}
	want := make(map[string]bool)
	for _, spec := range r.schemes {
		sc, err := sim.ParseSchemeSpec(spec)
		if err != nil {
			return err
		}
		for _, bench := range r.benches {
			want[sc.Name+"/"+bench] = true
		}
	}
	if len(f.Runs) != len(want) {
		return fmt.Errorf("%d runs for %d requested points", len(f.Runs), len(want))
	}
	for _, run := range f.Runs {
		key := run.Scheme.Name + "/" + run.Bench
		if !want[key] {
			return fmt.Errorf("run %s not requested or repeated", key)
		}
		delete(want, key)
		if run.Retired < r.budget {
			return fmt.Errorf("run %s retired %d of a %d budget", key, run.Retired, r.budget)
		}
		if c := run.Cache; c != nil && c.Hits+c.Misses != c.Reads {
			return fmt.Errorf("run %s: %d hits + %d misses != %d reads", key, c.Hits, c.Misses, c.Reads)
		}
		if len(run.ThreadStats) > 0 {
			var sum uint64
			for _, t := range run.ThreadStats {
				sum += t.Retired
			}
			if sum != run.Retired {
				return fmt.Errorf("run %s: per-thread retired sums to %d, machine retired %d", key, sum, run.Retired)
			}
		}
	}
	return nil
}

// checkExplore validates an exploration document: every invariant
// explore.ValidateResult re-derives, rungs equal to the spec's plan, and
// the requested benchmarks.
func checkExplore(r *request, body []byte, plan []explore.RungRecord) error {
	var res explore.Result
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return fmt.Errorf("decode explore document: %w", err)
	}
	if err := explore.ValidateResult(&res); err != nil {
		return fmt.Errorf("explore document: %w", err)
	}
	if !reflect.DeepEqual(res.Rungs, plan) {
		return fmt.Errorf("rungs %+v, plan %+v", res.Rungs, plan)
	}
	if !reflect.DeepEqual(res.Benches, r.benches) {
		return fmt.Errorf("benches %v, requested %v", res.Benches, r.benches)
	}
	return nil
}
