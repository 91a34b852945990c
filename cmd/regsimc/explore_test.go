package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"regcache/internal/explore"
	"regcache/internal/serve"
	"regcache/internal/sim"
)

func TestParseAxis(t *testing.T) {
	cases := []struct {
		in   string
		want explore.Axis
		err  bool
	}{
		{in: "16,32,64", want: explore.Axis{Values: []int{16, 32, 64}}},
		{in: "8", want: explore.Axis{Values: []int{8}}},
		{in: "16:64:16", want: explore.Axis{Min: 16, Max: 64, Step: 16}},
		{in: "16:64", err: true},
		{in: "a,b", err: true},
		{in: "1:2:x", err: true},
	}
	for _, tc := range cases {
		got, err := parseAxis(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("parseAxis(%q): no error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseAxis(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseAxis(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestCmdExploreEndToEnd drives the explore subcommand against a real
// in-process daemon: the 14-evaluation halving schedule exceeds the tiny
// MaxSyncPoints, so the CLI takes the full async path — submit, long-poll
// the job, fetch and validate the document, render, save.
func TestCmdExploreEndToEnd(t *testing.T) {
	runner := sim.NewRunnerWith(2, sim.NewWorkloadCache())
	srv := serve.New(serve.Config{Backend: runner, MaxSyncPoints: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer runner.Close()

	out := filepath.Join(t.TempDir(), "explore.json")
	err := cmdExplore([]string{
		"-server", ts.URL, "-benches", "gzip",
		"-entries", "8,16,32,64", "-ways", "1", "-index", "preg,filtered",
		"-strategy", "halving", "-insts", "4000", "-min-insts", "1000",
		"-o", out,
	})
	if err != nil {
		t.Fatalf("cmdExplore: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("saved document: %v", err)
	}
	if err := reportExplore(data, ""); err != nil {
		t.Fatalf("saved document does not round-trip: %v", err)
	}

	// Explicit -async prints the job ID and returns without polling.
	if err := cmdExplore([]string{
		"-server", ts.URL, "-benches", "gzip", "-entries", "16", "-insts", "2000", "-async",
	}); err != nil {
		t.Fatalf("async cmdExplore: %v", err)
	}
}

// TestCmdExploreClientValidation: malformed axes and specs fail locally,
// before any request is sent.
func TestCmdExploreClientValidation(t *testing.T) {
	cases := [][]string{
		{},                                              // missing -entries
		{"-entries", "16:64"},                           // malformed range
		{"-entries", "x,y"},                             // malformed list
		{"-entries", "16", "-maxpregs", "a"},            // malformed optional axis
		{"-entries", "16", "-maxuse", "1:2"},            // malformed optional axis
		{"-entries", "16", "-strategy", "x"},            // unknown strategy
		{"-entries", "64:16:8"},                         // inverted range
		{"-entries", "16", "-kinds", "quake"},           // unknown kind
		{"-entries", "16", "-benches", "gzip,mcf,gzip"}, // repeated benchmark
		{"-entries", "16", "-benches", "quake"},         // unknown benchmark
	}
	for _, args := range cases {
		err := cmdExplore(append([]string{"-server", "http://127.0.0.1:1"}, args...))
		if err == nil {
			t.Errorf("cmdExplore(%v): no error", args)
		} else if exitCode(err) != 2 {
			// Exit status 1 would mean the spec passed client-side
			// validation and only the unreachable server failed it.
			t.Errorf("cmdExplore(%v): exit status %d for %v, want 2", args, exitCode(err), err)
		}
	}
}
