// Package store implements a persistent, content-addressed result store:
// the L2 of the run layer's cache hierarchy (memo → store → simulate).
//
// Storage format: append-only segment files (seg-NNNNNNNN.rcs) of
// length-prefixed, CRC32C-framed records, each carrying a 32-byte key
// fingerprint and an opaque value. The in-memory index is rebuilt by
// scanning segments in id order on Open (last write per key wins); a torn
// final record — the signature of a crash mid-append — is detected,
// dropped, and truncated away, never fatal, while a bad CRC anywhere else
// (a bit flip at rest) skips just that record and counts it. A single
// writer is enforced with an exclusive flock on the LOCK file (read-only
// opens take a shared lock), segments rotate atomically (O_EXCL create,
// header, fsync, directory fsync), offline compaction rewrites live
// records into fresh segments before deleting the old ones, and an
// optional size cap garbage-collects the least-recently-re-hit entries
// oldest-first.
//
// The package is deliberately generic — keys are fingerprints, values are
// bytes — so it has no dependencies on the simulation packages;
// internal/sim supplies the key derivation and payload codec.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
)

// Sentinel errors.
var (
	ErrNotFound = errors.New("store: key not found")
	ErrCorrupt  = errors.New("store: corrupt record")
	ErrClosed   = errors.New("store: closed")
	ErrReadOnly = errors.New("store: opened read-only")
	ErrLocked   = errors.New("store: locked by another process")
)

// Options configure Open. The zero value is a writable store with an 8 MiB
// segment size and no size cap.
type Options struct {
	// ReadOnly opens without the exclusive writer lock (a shared lock is
	// still taken, so a writer and a read-only opener exclude each other).
	ReadOnly bool

	// MaxSegmentBytes rotates the active segment once it grows past this
	// size. Default 8 MiB.
	MaxSegmentBytes int64

	// MaxBytes caps the live (indexed) data size; exceeding it on Put
	// triggers a GC of least-recently-re-hit entries down to 7/8 of the
	// cap, followed by a compaction. 0 = uncapped.
	MaxBytes int64

	// SyncEveryPut fsyncs the active segment after every append. Off by
	// default: the store is a cache of recomputable results, so the
	// durability contract is "whatever a crash tears off, reopen drops
	// cleanly", not "every append survives power loss".
	SyncEveryPut bool
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 8 << 20
	}
	return o
}

// entry locates one live record.
type entry struct {
	seg     uint32
	off     int64  // frame start within the segment file
	len     int64  // full framed length
	seq     uint64 // insertion order, monotonic within one open store
	lastHit uint64 // Get-hit ordinal; 0 = never re-hit since open
}

// Stats is a snapshot of the store counters.
type Stats struct {
	Entries   int   // live keys
	Segments  int   // segment files on disk
	SizeBytes int64 // on-disk bytes across all segments
	LiveBytes int64 // framed bytes of live (indexed) records

	Gets, Hits, Misses uint64
	Puts               uint64
	Superseded         uint64 // puts that replaced an existing key

	CorruptRecords uint64 // CRC failures skipped (open scans + reads)
	TornRecords    uint64 // incomplete tail records dropped on open
	AppendErrors   uint64 // failed or short appends (tail truncated back)

	GCEvicted   uint64 // entries dropped by size-cap GC
	Compactions uint64
}

// Store is an on-disk content-addressed cache. All methods are safe for
// concurrent use; writes are serialized internally (and across processes
// by the flock).
type Store struct {
	dir string
	opt Options

	mu      sync.Mutex
	lock    *os.File
	index   map[Key]entry
	readers map[uint32]*os.File
	segSize map[uint32]int64 // on-disk size per segment

	active     *os.File
	activeID   uint32
	activeSize int64

	seq    uint64
	hitSeq uint64
	stats  Stats
	closed bool
	buf    []byte // scratch encode buffer

	// writeHook, when set (crash-consistency tests), replaces the active
	// segment write so short writes and mid-append failures can be
	// injected against a real file.
	writeHook func([]byte) (int, error)
}

// SetWriteHook replaces the active-segment write with h (nil restores the
// real file write). It exists for fault-injection tests — including those
// of packages layered above the store — that need to exercise the append
// failure paths against an otherwise real store; production code never
// calls it.
func (s *Store) SetWriteHook(h func([]byte) (int, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeHook = h
}

// Open opens (creating, unless read-only) the store in dir.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	if opt.ReadOnly {
		if _, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := &Store{
		dir:     dir,
		opt:     opt,
		index:   make(map[Key]entry),
		readers: make(map[uint32]*os.File),
		segSize: make(map[uint32]int64),
	}
	if err := s.acquireLock(); err != nil {
		return nil, err
	}
	if err := s.load(); err != nil {
		s.releaseLock()
		return nil, err
	}
	return s, nil
}

// acquireLock takes the single-writer flock: exclusive for writable opens,
// shared for read-only ones.
func (s *Store) acquireLock() error {
	mode := os.O_RDONLY
	if !s.opt.ReadOnly {
		mode = os.O_RDWR | os.O_CREATE
	}
	f, err := os.OpenFile(filepath.Join(s.dir, "LOCK"), mode, 0o644)
	if err != nil {
		if s.opt.ReadOnly && os.IsNotExist(err) {
			// A store that was never written has no LOCK file; nothing to
			// exclude against.
			return nil
		}
		return fmt.Errorf("store: lock file: %w", err)
	}
	how := syscall.LOCK_EX
	if s.opt.ReadOnly {
		how = syscall.LOCK_SH
	}
	if err := syscall.Flock(int(f.Fd()), how|syscall.LOCK_NB); err != nil {
		f.Close()
		return fmt.Errorf("store: %s: %w", s.dir, ErrLocked)
	}
	s.lock = f
	return nil
}

func (s *Store) releaseLock() {
	if s.lock != nil {
		_ = syscall.Flock(int(s.lock.Fd()), syscall.LOCK_UN)
		s.lock.Close()
		s.lock = nil
	}
}

// segPath returns the path of segment id.
func (s *Store) segPath(id uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.rcs", id))
}

// segIDs lists the segment ids present on disk, sorted ascending.
func (s *Store) segIDs() ([]uint32, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.rcs"))
	if err != nil {
		return nil, err
	}
	ids := make([]uint32, 0, len(names))
	for _, name := range names {
		var id uint32
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%08d.rcs", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// load rebuilds the index by scanning every segment in id order (the last
// record per key wins) and prepares the active segment for appends.
func (s *Store) load() error {
	ids, err := s.segIDs()
	if err != nil {
		return fmt.Errorf("store: list segments: %w", err)
	}
	for i, id := range ids {
		last := i == len(ids)-1
		if err := s.loadSegment(id, last); err != nil {
			return err
		}
	}
	if s.opt.ReadOnly {
		return nil
	}
	if len(ids) == 0 {
		return s.rotateLocked()
	}
	// Reopen the newest segment for appending (its torn tail, if any, was
	// truncated by loadSegment).
	id := ids[len(ids)-1]
	if s.segSize[id] < segMagicLen {
		// A crash between segment creation and its header write left a
		// headerless file; replace it wholesale.
		if err := os.Remove(s.segPath(id)); err != nil {
			return fmt.Errorf("store: remove headerless segment %d: %w", id, err)
		}
		delete(s.segSize, id)
		s.activeID = id - 1
		return s.rotateLocked()
	}
	f, err := os.OpenFile(s.segPath(id), os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen segment %d: %w", id, err)
	}
	if _, err := f.Seek(s.segSize[id], 0); err != nil {
		f.Close()
		return fmt.Errorf("store: seek segment %d: %w", id, err)
	}
	s.active, s.activeID, s.activeSize = f, id, s.segSize[id]
	return nil
}

// loadSegment scans one segment into the index. A torn or unparseable tail
// is dropped (and truncated away when the segment is the newest one of a
// writable store, so appends resume at a clean frame boundary).
func (s *Store) loadSegment(id uint32, last bool) error {
	data, err := os.ReadFile(s.segPath(id))
	if err != nil {
		return fmt.Errorf("store: read segment %d: %w", id, err)
	}
	good := int64(0)
	if len(data) < segMagicLen || [segMagicLen]byte(data[:segMagicLen]) != segMagic {
		// A foreign or torn-at-birth file. An empty or partial header on
		// the newest segment is a crash between create and header write;
		// anything else is treated as one big corrupt record.
		if int64(len(data)) > 0 {
			if last {
				s.stats.TornRecords++
			} else {
				s.stats.CorruptRecords++
			}
		}
	} else {
		body := data[segMagicLen:]
		tail, dirty := scanRecords(body, func(off int64, key Key, val []byte, st recStatus) {
			switch st {
			case recOK:
				s.indexPut(key, entry{
					seg: id,
					off: segMagicLen + off,
					len: recordLen(len(val)),
				})
			case recCorrupt:
				s.stats.CorruptRecords++
			case recTorn:
				s.stats.TornRecords++
			case recBadLength:
				s.stats.CorruptRecords++
			}
		})
		good = segMagicLen + tail
		if dirty && !last {
			// Mid-chain segments are never appended to again; their dirty
			// tails stay on disk until compaction rewrites them.
			good = int64(len(data))
		}
	}
	if !s.opt.ReadOnly && last && good < int64(len(data)) {
		if err := os.Truncate(s.segPath(id), good); err != nil {
			return fmt.Errorf("store: truncate torn tail of segment %d: %w", id, err)
		}
	} else if good < int64(len(data)) {
		good = int64(len(data))
	}
	s.segSize[id] = good
	return nil
}

// indexPut records a live entry, assigning its insertion sequence and
// retiring any superseded predecessor.
func (s *Store) indexPut(k Key, e entry) {
	if old, ok := s.index[k]; ok {
		s.stats.Superseded++
		s.stats.LiveBytes -= old.len
	}
	s.seq++
	e.seq = s.seq
	s.index[k] = e
	s.stats.LiveBytes += e.len
}

// rotateLocked syncs and closes the active segment and atomically starts
// the next one: O_EXCL create, magic header, fsync, directory fsync.
func (s *Store) rotateLocked() error {
	if s.active != nil {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("store: sync segment %d: %w", s.activeID, err)
		}
		s.active.Close()
		s.active = nil
	}
	id := s.activeID + 1
	f, err := os.OpenFile(s.segPath(id), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment %d: %w", id, err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return fmt.Errorf("store: write segment %d header: %w", id, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync segment %d header: %w", id, err)
	}
	s.syncDir()
	s.active, s.activeID, s.activeSize = f, id, segMagicLen
	s.segSize[id] = segMagicLen
	return nil
}

// syncDir fsyncs the store directory (best effort) so segment creations
// and deletions are durable.
func (s *Store) syncDir() {
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// Get returns the value stored under k. The record's CRC is re-verified on
// every read, so a bit flip at rest surfaces as ErrCorrupt (counted, and
// the entry is dropped from the index) rather than as silently wrong
// bytes. A missing key returns ErrNotFound.
func (s *Store) Get(k Key) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.stats.Gets++
	e, ok := s.index[k]
	if !ok {
		s.stats.Misses++
		return nil, ErrNotFound
	}
	val, err := s.readLocked(k, e)
	if err != nil {
		s.stats.Misses++
		return nil, err
	}
	s.stats.Hits++
	s.hitSeq++
	e.lastHit = s.hitSeq
	s.index[k] = e
	return val, nil
}

// readLocked reads and CRC-checks one record, evicting it on corruption.
func (s *Store) readLocked(k Key, e entry) ([]byte, error) {
	r, err := s.readerLocked(e.seg)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, e.len)
	if _, err := r.ReadAt(buf, e.off); err != nil {
		s.dropCorrupt(k, e)
		return nil, fmt.Errorf("%w: segment %d offset %d: %v", ErrCorrupt, e.seg, e.off, err)
	}
	key, val, _, st := decodeRecord(buf)
	if st != recOK || key != k {
		s.dropCorrupt(k, e)
		return nil, fmt.Errorf("%w: segment %d offset %d", ErrCorrupt, e.seg, e.off)
	}
	return val, nil // buf is this read's own: no copy needed
}

func (s *Store) dropCorrupt(k Key, e entry) {
	s.stats.CorruptRecords++
	delete(s.index, k)
	s.stats.LiveBytes -= e.len
}

// readerLocked returns (opening lazily) the read handle for a segment.
func (s *Store) readerLocked(id uint32) (*os.File, error) {
	if r, ok := s.readers[id]; ok {
		return r, nil
	}
	r, err := os.Open(s.segPath(id))
	if err != nil {
		return nil, fmt.Errorf("store: open segment %d: %w", id, err)
	}
	s.readers[id] = r
	return r, nil
}

// Put appends (k, v), superseding any previous value for k. A failed or
// short append truncates the segment back to its pre-append size, so one
// bad write never leaves a torn frame in front of later appends.
func (s *Store) Put(k Key, v []byte) error {
	if len(v) > MaxValueBytes {
		return fmt.Errorf("store: value of %d bytes exceeds %d", len(v), MaxValueBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.opt.ReadOnly:
		return ErrReadOnly
	}
	if s.activeSize >= s.opt.MaxSegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	s.buf = appendRecord(s.buf[:0], k, v)
	off := s.activeSize
	write := s.active.Write
	if s.writeHook != nil {
		write = s.writeHook
	}
	n, err := write(s.buf)
	if err != nil || n < len(s.buf) {
		s.stats.AppendErrors++
		// Truncate alone is not enough: the file's write offset still sits
		// past the bytes that did land, so the next append would leave a
		// zero-filled hole. Seek back to the pre-append position too.
		terr := s.active.Truncate(off)
		if terr == nil {
			_, terr = s.active.Seek(off, 0)
		}
		if terr != nil {
			// The torn tail could not be cut back; abandon the segment so
			// later appends land on a clean one (reopen would drop the
			// tail anyway).
			_ = s.rotateLocked()
		}
		if err == nil {
			err = fmt.Errorf("short write: %d of %d bytes", n, len(s.buf))
		}
		return fmt.Errorf("store: append: %w", err)
	}
	s.activeSize += int64(n)
	s.segSize[s.activeID] = s.activeSize
	if s.opt.SyncEveryPut {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("store: sync: %w", err)
		}
	}
	s.indexPut(k, entry{seg: s.activeID, off: off, len: int64(len(s.buf))})
	s.stats.Puts++
	if s.opt.MaxBytes > 0 && s.stats.LiveBytes > s.opt.MaxBytes {
		// Evict below the cap with headroom so a hot store does not GC on
		// every append.
		target := s.opt.MaxBytes - s.opt.MaxBytes/8
		if _, err := s.gcLocked(target); err != nil {
			return fmt.Errorf("store: size-cap gc: %w", err)
		}
	}
	return nil
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.active == nil {
		return nil
	}
	return s.active.Sync()
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Store) statsLocked() Stats {
	st := s.stats
	st.Entries = len(s.index)
	st.Segments = len(s.segSize)
	st.SizeBytes = 0
	for _, n := range s.segSize {
		st.SizeBytes += n
	}
	return st
}

// Close syncs the active segment and releases every handle and the lock.
// Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.active != nil {
		if serr := s.active.Sync(); serr != nil {
			err = serr
		}
		s.active.Close()
		s.active = nil
	}
	for _, r := range s.readers {
		r.Close()
	}
	s.readers = nil
	s.releaseLock()
	return err
}

// EntryInfo describes one live entry for admin tooling.
type EntryInfo struct {
	Key     Key
	Segment uint32
	Offset  int64
	Len     int64 // framed record bytes
	LastHit uint64
}

// Entries returns the live entries in insertion order.
func (s *Store) Entries() []EntryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	type kv struct {
		k Key
		e entry
	}
	all := make([]kv, 0, len(s.index))
	for k, e := range s.index {
		all = append(all, kv{k, e})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].e.seq < all[j].e.seq })
	out := make([]EntryInfo, len(all))
	for i, x := range all {
		out[i] = EntryInfo{Key: x.k, Segment: x.e.seg, Offset: x.e.off, Len: x.e.len, LastHit: x.e.lastHit}
	}
	return out
}
