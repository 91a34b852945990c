package sim

// This file binds the run layer to internal/store, the durable
// content-addressed result store that acts as the L2 of the cache
// hierarchy (memo → store → simulate). It supplies the two things the
// generic store deliberately does not know about: how a job is
// fingerprinted into a key, and how a completed result is encoded into a
// durable payload (payload.go).
//
// Keys are a canonical SHA-256 over the versioned SchemeRecord, the
// benchmark, the defaulted Options, the ResultsFile schema version, and a
// simulator-version stamp. The stamp is the staleness guard: any change
// that alters timing behaviour must bump SimulatorVersion, after which
// every existing store entry simply stops matching — stale results are
// never served, they just age out (or are GC'd/compacted away).

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"

	"regcache/internal/pipeline"
	"regcache/internal/store"
)

// SimulatorVersion stamps every stored result with the timing model that
// produced it. Bump it whenever a change alters simulated behaviour —
// cycle counts, stats, default configuration — so a durable store never
// serves results from an older model. Pure performance work that keeps
// results bit-identical (verified by the fingerprint tests of PR 3) does
// not bump it. The ResultsFile schema version is fingerprinted alongside
// it, so a payload-layout change invalidates entries the same way.
// Version history:
//
//	1 — initial durable store.
//	2 — pipeline.Result gained use-predictor raw counters and the optional
//	    Intervals block; interval options joined the fingerprint.
//	3 — multithreaded workloads (thread/interleave options joined the
//	    fingerprint; Result gained the per-context stats block) and the
//	    port-filtering scheme family (read_ports in SchemeRecord,
//	    port-conflict stalls in Stats).
//	4 — one backing-file port model: ReadPorts 0 is the paper's single
//	    read port, arbitrated like any other count, so unported cache
//	    results gain port-conflict stalls; a ported scheme now holds its
//	    port across the write interlock (backing latency >= 3); two-level
//	    names carry a non-default L2 latency.
const SimulatorVersion = 4

// storeKey is the canonical key encoding hashed into a store fingerprint.
// Field order is fixed by the struct, so json.Marshal is deterministic.
type storeKey struct {
	SimVersion     int          `json:"sim_version"`
	SchemaVersion  int          `json:"schema_version"`
	Scheme         SchemeRecord `json:"scheme"`
	Bench          string       `json:"bench"`
	Insts          uint64       `json:"insts"`
	TrackLifetimes bool         `json:"track_lifetimes"`
	TrackLive      bool         `json:"track_live"`
	Intervals      int          `json:"intervals"`
	WarmupInsts    uint64       `json:"warmup_insts"`
	Threads        int          `json:"threads"`
	Interleave     int          `json:"interleave"`
}

// fingerprintJob derives the content-addressed store key for a job under
// the given simulator version.
func fingerprintJob(version int, j Job) store.Key {
	j.Opts = j.Opts.withDefaults()
	data, err := json.Marshal(storeKey{
		SimVersion:     version,
		SchemaVersion:  ResultsSchemaVersion,
		Scheme:         NewSchemeRecord(j.Scheme),
		Bench:          j.Bench,
		Insts:          j.Opts.Insts,
		TrackLifetimes: j.Opts.TrackLifetimes,
		TrackLive:      j.Opts.TrackLive,
		Intervals:      j.Opts.Intervals,
		WarmupInsts:    j.Opts.WarmupInsts,
		Threads:        j.Opts.Threads,
		Interleave:     j.Opts.Interleave,
	})
	if err != nil {
		// The key structs are plain value types; marshalling cannot fail.
		panic(fmt.Sprintf("sim: fingerprint job %s: %v", j.Key(), err))
	}
	return store.Key(sha256.Sum256(data))
}

// StoreGetStatus classifies a result-store lookup.
type StoreGetStatus int

const (
	StoreGetMiss    StoreGetStatus = iota
	StoreGetHit                    // decoded result served
	StoreGetCorrupt                // entry present but CRC-bad or undecodable
)

// ResultStore adapts a generic store.Store into the run layer's durable
// result cache. It is safe for concurrent use (the underlying store
// serializes access internally).
type ResultStore struct {
	st      *store.Store
	version int
}

// NewResultStore wraps an open store with the current SimulatorVersion.
func NewResultStore(st *store.Store) *ResultStore {
	return &ResultStore{st: st, version: SimulatorVersion}
}

// OpenResultStore opens (creating if needed) the store directory and wraps
// it with the current SimulatorVersion.
func OpenResultStore(dir string, opt store.Options) (*ResultStore, error) {
	st, err := store.Open(dir, opt)
	if err != nil {
		return nil, err
	}
	return NewResultStore(st), nil
}

// WithSimulatorVersion returns a view of the same store keyed under a
// different simulator version — the hook version-bump tests and migration
// tooling use to prove that entries written under one model never match
// under another.
func (rs *ResultStore) WithSimulatorVersion(v int) *ResultStore {
	return &ResultStore{st: rs.st, version: v}
}

// Store returns the underlying generic store (for stats and admin ops).
func (rs *ResultStore) Store() *store.Store { return rs.st }

// Get looks a job up. A key that is present but fails its CRC check or
// does not decode as a current-version payload reports StoreGetCorrupt;
// the caller treats it as a miss and re-simulates (the fresh result's
// append then supersedes the bad entry).
func (rs *ResultStore) Get(j Job) (pipeline.Result, StoreGetStatus) {
	data, err := rs.st.Get(fingerprintJob(rs.version, j))
	switch {
	case errors.Is(err, store.ErrNotFound):
		return pipeline.Result{}, StoreGetMiss
	case err != nil:
		return pipeline.Result{}, StoreGetCorrupt
	}
	var res pipeline.Result
	if _, err := decodePayloadResult(data, &res); err != nil {
		return pipeline.Result{}, StoreGetCorrupt
	}
	return res, StoreGetHit
}

// Put appends one completed job's result.
func (rs *ResultStore) Put(j Job, res pipeline.Result) error {
	return rs.st.Put(fingerprintJob(rs.version, j), EncodeStoredPayload(j.Bench, j.Scheme, j.Opts, res))
}

// Close closes the underlying store.
func (rs *ResultStore) Close() error { return rs.st.Close() }
