// Explore-over-fleet E2E: POST /v1/explore on a gateway node scatters
// every rung across the ring, and the gathered exploration document is
// byte-identical to a standalone server's — with each candidate
// evaluation simulated exactly once fleet-wide and warm repeats answered
// entirely from memo.
package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"regcache/internal/explore"
	"regcache/internal/serve"
	"regcache/internal/sim"
)

// exploreClusterBody is a 4-candidate halving search over two benchmarks:
// rungs of 4, 2, and 1 candidates (budgets 1000, 2000, 4000) for
// (4+2+1)×2 = 14 evaluations — sync-sized at the cluster's MaxSyncPoints.
const exploreClusterBody = `{
	"benches": ["gzip", "mcf"],
	"space": {
		"entries": {"values": [8, 16]},
		"ways": {"values": [1]},
		"index": ["preg", "filtered"]
	},
	"strategy": "halving",
	"insts": 4000,
	"min_insts": 1000
}`

const exploreClusterEvals = (4 + 2 + 1) * 2

func postExplore(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/explore: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read explore body: %v", err)
	}
	return resp.StatusCode, data
}

func TestClusterExploreByteStable(t *testing.T) {
	c := startCluster(t, 3, clusterOpts{})

	status, fleetBody := postExplore(t, c.gateway().url, exploreClusterBody)
	if status != http.StatusOK {
		t.Fatalf("fleet explore status %d: %s", status, fleetBody)
	}
	var res explore.Result
	if err := json.Unmarshal(fleetBody, &res); err != nil {
		t.Fatalf("parse fleet document: %v", err)
	}
	if err := explore.ValidateResult(&res); err != nil {
		t.Fatalf("fleet document fails validation: %v\n%s", err, fleetBody)
	}
	if got := c.jobsRun(); got != exploreClusterEvals {
		t.Errorf("fleet-wide jobs run = %d, want %d (each evaluation exactly once)", got, exploreClusterEvals)
	}

	// Reference: the same exploration on a standalone server.
	single := serve.New(serve.Config{Backend: sim.NewRunner(2), MaxSyncPoints: 64})
	ts := httptest.NewServer(single.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = single.Drain(ctx)
	}()
	status, singleBody := postExplore(t, ts.URL, exploreClusterBody)
	if status != http.StatusOK {
		t.Fatalf("single-node explore status %d: %s", status, singleBody)
	}
	if !bytes.Equal(fleetBody, singleBody) {
		t.Errorf("fleet document differs from single-node document:\nfleet:  %s\nsingle: %s", fleetBody, singleBody)
	}

	// Warm repeat through the gateway: byte-identical, zero re-simulation
	// anywhere in the fleet — later rungs of the cold run already memoized
	// every (scheme, bench, budget) point the warm run revisits.
	status, again := postExplore(t, c.gateway().url, exploreClusterBody)
	if status != http.StatusOK {
		t.Fatalf("warm fleet explore status %d: %s", status, again)
	}
	if !bytes.Equal(fleetBody, again) {
		t.Error("warm fleet exploration not byte-identical to cold run")
	}
	if got := c.jobsRun(); got != exploreClusterEvals {
		t.Errorf("fleet-wide jobs run after warm repeat = %d, want still %d", got, exploreClusterEvals)
	}
}
