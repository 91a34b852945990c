package sim

// This file is the run layer's contribution to the distributed sweep
// fabric (internal/fleet): the canonical point fingerprint the fabric
// consistent-hashes to pick an owner node, the point/run identity strings
// scatter/gather uses to match partial results back to their sweep slots,
// the merge that reassembles partial ResultsFiles into one byte-stable
// document. Peer store lookups (GET /v1/store/{key}) carry the durable
// payload itself, encoded and decoded by payload.go.
//
// Decoupled on purpose: the fingerprint is exactly the durable store key
// (fingerprintJob under the current SimulatorVersion), so a point's ring
// owner is also the node whose store shard holds its cached result — the
// fleet's "store as L3 shard" property falls out of reusing one
// canonicalization.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"regcache/internal/store"
)

// Fingerprint returns the canonical content-addressed key for a job under
// the current SimulatorVersion — the same key the durable result store
// files the job's result under. The fleet layer consistent-hashes it to
// partition sweeps, so a point's owner node and its store shard coincide.
func Fingerprint(j Job) store.Key {
	return fingerprintJob(SimulatorVersion, j)
}

// FingerprintPoint is Fingerprint for an unassembled (bench, scheme,
// options) triple.
func FingerprintPoint(bench string, s Scheme, o Options) store.Key {
	return Fingerprint(Job{Scheme: s, Bench: bench, Opts: o})
}

// PointIdentity names one sweep point for matching gathered runs back to
// their canonical slots. It is intentionally coarser than Fingerprint: it
// ignores fields that cannot differ within one sweep (interval options,
// tracking flags, simulator version), so a RunRecord produced by a remote
// node matches the identity computed by the gateway from the request. The
// thread count is part of the identity: an explore over the Threads axis
// evaluates the same scheme at several counts, and results files may mix
// thread counts, so (bench, insts, scheme) alone would collide.
func PointIdentity(bench string, s Scheme, o Options) string {
	o = o.withDefaults()
	return runIdentity(NewSchemeRecord(s), bench, o.Insts, o.Threads)
}

// RunIdentity is PointIdentity computed from a serialized run — the form
// duplicate detection (cmd/checkresults) and gather matching use.
func RunIdentity(r RunRecord) string {
	return runIdentity(r.Scheme, r.Bench, r.Insts, r.Threads)
}

func runIdentity(sr SchemeRecord, bench string, insts uint64, threads int) string {
	data, err := json.Marshal(sr)
	if err != nil {
		// SchemeRecord is a plain value struct; marshalling cannot fail.
		panic(fmt.Sprintf("sim: run identity %s/%s: %v", sr.Name, bench, err))
	}
	if threads > 1 {
		// Appended only for multithreaded points so single-context
		// identities keep their historical form.
		return fmt.Sprintf("%s|%d|t%d|%s", bench, insts, threads, data)
	}
	return fmt.Sprintf("%s|%d|%s", bench, insts, data)
}

// MergeResultsFiles reassembles partial results files gathered from a
// fleet into one canonical document: runs are reordered to the given
// identity order (the gateway's scheme-outer × bench-inner expansion of
// the original request), so the merged body is byte-identical to what a
// single node would have produced for the whole sweep. Every identity in
// order must be resolved by exactly one distinct run; duplicates across
// partials (a hedge that raced its primary to completion) are tolerated
// only if their serialized forms agree — disagreement means two nodes
// simulated the same point differently, which is a determinism violation
// worth failing loudly over.
func MergeResultsFiles(generator string, order []string, parts []*ResultsFile) (*ResultsFile, error) {
	type slot struct {
		rec RunRecord
		raw []byte
	}
	byID := make(map[string]slot, len(order))
	want := make(map[string]bool, len(order))
	for _, id := range order {
		want[id] = true
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.SchemaVersion != ResultsSchemaVersion {
			return nil, fmt.Errorf("sim: merge: partial has schema version %d, want %d",
				p.SchemaVersion, ResultsSchemaVersion)
		}
		for _, r := range p.Runs {
			id := RunIdentity(r)
			if !want[id] {
				return nil, fmt.Errorf("sim: merge: unexpected run %s/%s not in the requested matrix",
					r.Scheme.Name, r.Bench)
			}
			raw, err := json.Marshal(r)
			if err != nil {
				return nil, fmt.Errorf("sim: merge: marshal run %s/%s: %w", r.Scheme.Name, r.Bench, err)
			}
			if prev, ok := byID[id]; ok {
				if !bytes.Equal(prev.raw, raw) {
					return nil, fmt.Errorf("sim: merge: divergent duplicate for %s/%s (two nodes disagree)",
						r.Scheme.Name, r.Bench)
				}
				continue
			}
			byID[id] = slot{rec: r, raw: raw}
		}
	}
	runs := make([]RunRecord, 0, len(order))
	for _, id := range order {
		s, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("sim: merge: point %s unresolved by any partial", shortIdentity(id))
		}
		runs = append(runs, s.rec)
	}
	// CreatedAt and WallSeconds stay zero for the same reason the service
	// plane zeroes them: the body must be a pure function of the request.
	return &ResultsFile{
		SchemaVersion: ResultsSchemaVersion,
		Generator:     generator,
		Runs:          runs,
	}, nil
}

// shortIdentity trims the scheme JSON off an identity string for error
// messages (bench|insts is enough to locate the hole).
func shortIdentity(id string) string {
	if i := bytes.IndexByte([]byte(id), '{'); i > 0 {
		return id[:i] + "..."
	}
	return id
}
