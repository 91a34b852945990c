package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"regcache/internal/pipeline"
)

// fleetTestMatrix builds a small scheme × bench matrix plus the canonical
// identity order a gateway would compute for it.
func fleetTestMatrix(t *testing.T) (schemes []Scheme, benches []string, opts Options, order []string) {
	t.Helper()
	for _, spec := range []string{"use:16x2:filtered", "mono:3"} {
		sc, err := ParseSchemeSpec(spec)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		schemes = append(schemes, sc)
	}
	benches = []string{"gzip", "mcf"}
	opts = Options{Insts: 2000}
	for _, sc := range schemes {
		for _, b := range benches {
			order = append(order, PointIdentity(b, sc, opts))
		}
	}
	return schemes, benches, opts, order
}

// fleetRun synthesizes a deterministic run record for one point.
func fleetRun(bench string, sc Scheme, o Options, ipc float64) RunRecord {
	return NewRunRecord(bench, sc, o, pipeline.Result{IPC: ipc, Stats: pipeline.Stats{Cycles: 100, Retired: uint64(ipc * 100)}})
}

func partial(runs ...RunRecord) *ResultsFile {
	return &ResultsFile{SchemaVersion: ResultsSchemaVersion, Generator: "node", Runs: runs}
}

// TestMergeReordersToCanonicalOrder: partials arriving in arbitrary order
// with arbitrarily ordered runs merge into the exact identity order, with
// zero timestamps — a pure function of the request.
func TestMergeReordersToCanonicalOrder(t *testing.T) {
	schemes, benches, opts, order := fleetTestMatrix(t)
	// Scatter the four runs across two partials in scrambled order.
	a := partial(
		fleetRun(benches[1], schemes[1], opts, 2),
		fleetRun(benches[0], schemes[0], opts, 1),
	)
	b := partial(
		fleetRun(benches[0], schemes[1], opts, 2),
		fleetRun(benches[1], schemes[0], opts, 1),
	)
	merged, err := MergeResultsFiles("regsimd", order, []*ResultsFile{a, b, nil})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if len(merged.Runs) != len(order) {
		t.Fatalf("merged %d runs, want %d", len(merged.Runs), len(order))
	}
	for i, id := range order {
		if got := RunIdentity(merged.Runs[i]); got != id {
			t.Errorf("slot %d: identity %s, want %s", i, got, id)
		}
	}
	if merged.CreatedAt != "" || merged.WallSeconds != 0 {
		t.Errorf("merged document carries wall-clock state: created_at=%q wall=%v", merged.CreatedAt, merged.WallSeconds)
	}
	if merged.Generator != "regsimd" {
		t.Errorf("generator %q, want regsimd", merged.Generator)
	}

	// Byte stability: merging the same partials in the opposite order
	// yields the identical serialized document.
	merged2, err := MergeResultsFiles("regsimd", order, []*ResultsFile{b, a})
	if err != nil {
		t.Fatalf("re-merge: %v", err)
	}
	d1, _ := json.Marshal(merged)
	d2, _ := json.Marshal(merged2)
	if string(d1) != string(d2) {
		t.Error("merge result depends on partial arrival order")
	}
}

// TestMergeToleratesIdenticalDuplicates: a hedge that raced its primary
// to completion delivers the same run twice; identical copies merge
// cleanly, divergent copies fail loudly.
func TestMergeDuplicates(t *testing.T) {
	schemes, benches, opts, order := fleetTestMatrix(t)
	full := []RunRecord{
		fleetRun(benches[0], schemes[0], opts, 1),
		fleetRun(benches[1], schemes[0], opts, 1),
		fleetRun(benches[0], schemes[1], opts, 2),
		fleetRun(benches[1], schemes[1], opts, 2),
	}
	dup := fleetRun(benches[0], schemes[0], opts, 1)
	merged, err := MergeResultsFiles("regsimd", order, []*ResultsFile{partial(full...), partial(dup)})
	if err != nil {
		t.Fatalf("identical duplicate rejected: %v", err)
	}
	if len(merged.Runs) != len(order) {
		t.Fatalf("merged %d runs, want %d (duplicate must not double-count)", len(merged.Runs), len(order))
	}

	diverged := fleetRun(benches[0], schemes[0], opts, 9) // different IPC: a determinism violation
	_, err = MergeResultsFiles("regsimd", order, []*ResultsFile{partial(full...), partial(diverged)})
	if err == nil || !strings.Contains(err.Error(), "divergent") {
		t.Errorf("divergent duplicate: err = %v, want divergent-duplicate error", err)
	}
}

// TestMergeRejectsBadPartials: runs outside the matrix, unresolved
// points, and schema drift all fail the merge.
func TestMergeRejectsBadPartials(t *testing.T) {
	schemes, benches, opts, order := fleetTestMatrix(t)
	full := []RunRecord{
		fleetRun(benches[0], schemes[0], opts, 1),
		fleetRun(benches[1], schemes[0], opts, 1),
		fleetRun(benches[0], schemes[1], opts, 2),
		fleetRun(benches[1], schemes[1], opts, 2),
	}

	stranger := fleetRun("twolf", schemes[0], opts, 1)
	if _, err := MergeResultsFiles("g", order, []*ResultsFile{partial(full...), partial(stranger)}); err == nil ||
		!strings.Contains(err.Error(), "unexpected run") {
		t.Errorf("run outside matrix: err = %v, want unexpected-run error", err)
	}

	if _, err := MergeResultsFiles("g", order, []*ResultsFile{partial(full[:3]...)}); err == nil ||
		!strings.Contains(err.Error(), "unresolved") {
		t.Errorf("missing point: err = %v, want unresolved error", err)
	}

	drifted := partial(full...)
	drifted.SchemaVersion = ResultsSchemaVersion + 1
	if _, err := MergeResultsFiles("g", order, []*ResultsFile{drifted}); err == nil ||
		!strings.Contains(err.Error(), "schema version") {
		t.Errorf("schema drift: err = %v, want schema-version error", err)
	}
}

// TestPointIdentityMatchesRunIdentity: the gateway computes identities
// from the request (PointIdentity), nodes from serialized runs
// (RunIdentity); scatter/gather only works if they agree.
func TestPointIdentityMatchesRunIdentity(t *testing.T) {
	schemes, benches, opts, _ := fleetTestMatrix(t)
	for _, sc := range schemes {
		for _, b := range benches {
			rec := fleetRun(b, sc, opts, 1)
			if p, r := PointIdentity(b, sc, opts), RunIdentity(rec); p != r {
				t.Errorf("%s/%s: PointIdentity %q != RunIdentity %q", sc.Name, b, p, r)
			}
		}
	}
}

// TestFingerprintMatchesStoreKey: the fleet's ring key must be exactly
// the durable store key, so a point's ring owner and its store shard
// coincide (the property peer store lookup depends on).
func TestFingerprintMatchesStoreKey(t *testing.T) {
	schemes, benches, opts, _ := fleetTestMatrix(t)
	j := Job{Scheme: schemes[0], Bench: benches[0], Opts: opts}
	if Fingerprint(j) != fingerprintJob(SimulatorVersion, j) {
		t.Error("Fingerprint diverges from the store's fingerprintJob")
	}
	if FingerprintPoint(benches[0], schemes[0], opts) != Fingerprint(j) {
		t.Error("FingerprintPoint diverges from Fingerprint")
	}
	// Distinct points get distinct keys.
	if FingerprintPoint(benches[0], schemes[0], opts) == FingerprintPoint(benches[1], schemes[0], opts) {
		t.Error("different benches collide")
	}
}

// TestStoredPayloadRoundTrip: EncodeStoredPayload → DecodeStoredPayload
// preserves both the curated record and the full pipeline result, the
// encoding is what ResultStore.Put persists (the /v1/store wire
// contract), and payloads of another version or layout are refused.
func TestStoredPayloadRoundTrip(t *testing.T) {
	schemes, benches, opts, _ := fleetTestMatrix(t)
	res := pipeline.Result{IPC: 1.5, Stats: pipeline.Stats{Cycles: 200, Retired: 300}}
	data := EncodeStoredPayload(benches[0], schemes[0], opts, res)
	rec, got, err := DecodeStoredPayload(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rec.Bench != benches[0] || rec.Scheme.Name != schemes[0].Name {
		t.Errorf("record identity %s/%s, want %s/%s", rec.Scheme.Name, rec.Bench, schemes[0].Name, benches[0])
	}
	want, _ := json.Marshal(res)
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Errorf("result did not round-trip:\nwant %s\nhave %s", want, have)
	}

	// A run record synthesized from the decoded result is byte-identical
	// to one built from the original — the hedge path's byte-stability.
	r1, _ := json.Marshal(NewRunRecord(benches[0], schemes[0], opts, res))
	r2, _ := json.Marshal(NewRunRecord(benches[0], schemes[0], opts, got))
	if string(r1) != string(r2) {
		t.Error("run record from decoded payload differs from original")
	}

	// The store persists exactly these bytes.
	rs := openTestStore(t, t.TempDir())
	defer rs.Close()
	j := Job{Scheme: schemes[0], Bench: benches[0], Opts: opts}
	if err := rs.Put(j, res); err != nil {
		t.Fatal(err)
	}
	if disk, err := rs.Store().Get(Fingerprint(j)); err != nil || !bytes.Equal(disk, data) {
		t.Errorf("stored bytes differ from EncodeStoredPayload (err %v)", err)
	}

	if data[0] != StorePayloadVersion {
		t.Errorf("version byte %d, want %d", data[0], StorePayloadVersion)
	}
	future := bytes.Clone(data)
	future[0]++
	if _, _, err := DecodeStoredPayload(future); err == nil {
		t.Error("future payload version accepted")
	}
	if _, _, err := DecodeStoredPayload(encodeV1Payload(t, rec, res)); err == nil {
		t.Error("version-1 JSON payload accepted")
	}
}
