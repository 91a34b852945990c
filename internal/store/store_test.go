package store

// Crash-consistency and correctness tests for the segment store. The
// crash shapes are injected against real files: torn tails by truncating
// or appending partial frames, bit flips by rewriting single bytes on
// disk, failed appends through the writeHook test seam. Every test runs
// race-clean (the suite is part of `go test -race ./...` in CI).

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func testKey(i int) Key {
	var k Key
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	k[31] = 0xA5
	return k
}

func testVal(i, n int) []byte {
	v := make([]byte, n)
	for j := range v {
		v[j] = byte(i + j)
	}
	return v
}

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func mustPut(t *testing.T, s *Store, i, n int) {
	t.Helper()
	if err := s.Put(testKey(i), testVal(i, n)); err != nil {
		t.Fatalf("Put(%d): %v", i, err)
	}
}

func checkGet(t *testing.T, s *Store, i, n int) {
	t.Helper()
	got, err := s.Get(testKey(i))
	if err != nil {
		t.Fatalf("Get(%d): %v", i, err)
	}
	if !bytes.Equal(got, testVal(i, n)) {
		t.Fatalf("Get(%d): wrong value (%d bytes)", i, len(got))
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()

	if _, err := s.Get(testKey(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty store: %v, want ErrNotFound", err)
	}
	for i := 0; i < 10; i++ {
		mustPut(t, s, i, 100+i)
	}
	for i := 0; i < 10; i++ {
		checkGet(t, s, i, 100+i)
	}
	// Supersede key 3 with a new value; the old record stays on disk but
	// the index serves only the newest.
	if err := s.Put(testKey(3), testVal(77, 50)); err != nil {
		t.Fatalf("supersede: %v", err)
	}
	got, err := s.Get(testKey(3))
	if err != nil || !bytes.Equal(got, testVal(77, 50)) {
		t.Fatalf("superseded Get: %v, %d bytes", err, len(got))
	}
	st := s.Stats()
	if st.Entries != 10 || st.Puts != 11 || st.Superseded != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.LiveBytes >= st.SizeBytes {
		t.Fatalf("superseded record must leave dead bytes: live %d, size %d", st.LiveBytes, st.SizeBytes)
	}
}

func TestValueTooLarge(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.Put(testKey(1), make([]byte, MaxValueBytes+1)); err == nil {
		t.Fatal("oversized Put must fail")
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 20; i++ {
		mustPut(t, s, i, 64)
	}
	mustPut(t, s, 5, 80) // supersede
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if s.Len() != 20 {
		t.Fatalf("reopened Len = %d, want 20", s.Len())
	}
	for i := 0; i < 20; i++ {
		if i == 5 {
			checkGet(t, s, 5, 80)
			continue
		}
		checkGet(t, s, i, 64)
	}
	if st := s.Stats(); st.Superseded != 1 {
		t.Fatalf("reopen must observe the superseded record: %+v", st)
	}
	// The store stays writable after a reopen.
	mustPut(t, s, 100, 64)
	checkGet(t, s, 100, 64)
}

// newestSegment returns the path of the highest-numbered segment file.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.rcs"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return names[len(names)-1]
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		mustPut(t, s, i, 128)
	}
	s.Close()

	// A crash mid-append: the file ends in a frame header claiming more
	// bytes than follow.
	seg := newestSegment(t, dir)
	pre, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := appendRecord(nil, testKey(99), testVal(99, 500))
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = mustOpen(t, dir, Options{})
	if s.Len() != 5 {
		t.Fatalf("after torn tail: Len = %d, want 5 (torn record dropped)", s.Len())
	}
	if st := s.Stats(); st.TornRecords != 1 {
		t.Fatalf("torn record not counted: %+v", st)
	}
	post, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if post.Size() != pre.Size() {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", post.Size(), pre.Size())
	}
	for i := 0; i < 5; i++ {
		checkGet(t, s, i, 128)
	}
	// Appends resume at the clean boundary; a further reopen is clean.
	mustPut(t, s, 6, 128)
	s.Close()
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if s.Len() != 6 {
		t.Fatalf("after append+reopen: Len = %d, want 6", s.Len())
	}
	if st := s.Stats(); st.TornRecords != 0 {
		t.Fatalf("clean reopen must see no torn records: %+v", st)
	}
}

func TestIndexRebuildEqualsPreCrashMinusTornRecord(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 8; i++ {
		mustPut(t, s, i, 200)
	}
	pre := s.Entries()
	s.Close()

	// Crash during the last append: cut the final record in half.
	seg := newestSegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := recordLen(200)
	if err := os.Truncate(seg, info.Size()-lastLen/2); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	post := s.Entries()
	if len(post) != len(pre)-1 {
		t.Fatalf("rebuilt index has %d entries, want %d", len(post), len(pre)-1)
	}
	for i, e := range post {
		if e.Key != pre[i].Key || e.Segment != pre[i].Segment || e.Offset != pre[i].Offset {
			t.Fatalf("entry %d diverged after rebuild: %+v vs %+v", i, e, pre[i])
		}
	}
}

func TestBitFlipSkippedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 6; i++ {
		mustPut(t, s, i, 150)
	}
	// Locate record 2's value region on disk.
	var victim EntryInfo
	for _, e := range s.Entries() {
		if e.Key == testKey(2) {
			victim = e
		}
	}
	s.Close()

	seg := filepath.Join(dir, fmt.Sprintf("seg-%08d.rcs", victim.Segment))
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	one := []byte{0xFF}
	if _, err := f.WriteAt(one, victim.Offset+frameLen+int64(keyLen)+10); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if s.Len() != 5 {
		t.Fatalf("after bit flip: Len = %d, want 5 (flipped record skipped)", s.Len())
	}
	if st := s.Stats(); st.CorruptRecords != 1 {
		t.Fatalf("corrupt record not counted: %+v", st)
	}
	if _, err := s.Get(testKey(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("flipped key: %v, want ErrNotFound", err)
	}
	// Every record after the flipped one survives: corruption skips by
	// frame length instead of abandoning the segment.
	for _, i := range []int{0, 1, 3, 4, 5} {
		checkGet(t, s, i, 150)
	}
}

func TestBitFlipDetectedOnRead(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	mustPut(t, s, 1, 300)
	mustPut(t, s, 2, 300)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte under the open store's feet (the index still points at
	// the record): the read-time CRC check must catch it.
	var victim EntryInfo
	for _, e := range s.Entries() {
		if e.Key == testKey(1) {
			victim = e
		}
	}
	seg := filepath.Join(dir, fmt.Sprintf("seg-%08d.rcs", victim.Segment))
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	one := []byte{0xEE}
	if _, err := f.WriteAt(one, victim.Offset+frameLen+int64(keyLen)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := s.Get(testKey(1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on flipped record: %v, want ErrCorrupt", err)
	}
	// The entry is dropped, not retried forever.
	if _, err := s.Get(testKey(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Get: %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.CorruptRecords != 1 || st.Entries != 1 {
		t.Fatalf("stats after read-time corruption: %+v", st)
	}
	checkGet(t, s, 2, 300)
}

func TestShortWriteTruncatesBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	mustPut(t, s, 1, 100)
	preSize := s.Stats().SizeBytes

	// Inject a short write: half the frame lands, then the device "fails".
	s.writeHook = func(b []byte) (int, error) {
		n, err := s.active.Write(b[:len(b)/2])
		if err != nil {
			return n, err
		}
		return n, errors.New("injected: device failed mid-append")
	}
	if err := s.Put(testKey(2), testVal(2, 100)); err == nil {
		t.Fatal("Put through failing writer must error")
	}
	s.writeHook = nil

	st := s.Stats()
	if st.AppendErrors != 1 {
		t.Fatalf("append error not counted: %+v", st)
	}
	if st.SizeBytes != preSize {
		t.Fatalf("torn frame not truncated back: %d bytes, want %d", st.SizeBytes, preSize)
	}
	// The store self-heals: the same key can be written again and both
	// records survive a reopen.
	mustPut(t, s, 2, 100)
	checkGet(t, s, 1, 100)
	checkGet(t, s, 2, 100)
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("reopen after healed short write: Len = %d, want 2", s2.Len())
	}
	if st := s2.Stats(); st.TornRecords != 0 && st.CorruptRecords != 0 {
		t.Fatalf("healed store must reopen clean: %+v", st)
	}
	checkGet(t, s2, 1, 100)
	checkGet(t, s2, 2, 100)
}

func TestFailingWriterNothingWritten(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	s.writeHook = func(b []byte) (int, error) { return 0, errors.New("injected: EIO") }
	if err := s.Put(testKey(1), testVal(1, 100)); err == nil {
		t.Fatal("Put must surface the write error")
	}
	s.writeHook = nil
	mustPut(t, s, 1, 100)
	checkGet(t, s, 1, 100)
}

func TestRotationAndMultiSegment(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 512})
	for i := 0; i < 30; i++ {
		mustPut(t, s, i, 128)
	}
	st := s.Stats()
	if st.Segments < 5 {
		t.Fatalf("expected many segments, got %d", st.Segments)
	}
	for i := 0; i < 30; i++ {
		checkGet(t, s, i, 128)
	}
	s.Close()

	s = mustOpen(t, dir, Options{MaxSegmentBytes: 512})
	defer s.Close()
	if s.Len() != 30 {
		t.Fatalf("multi-segment reopen: Len = %d, want 30", s.Len())
	}
	for i := 0; i < 30; i++ {
		checkGet(t, s, i, 128)
	}
}

func TestCompactReclaims(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 1024})
	for i := 0; i < 10; i++ {
		mustPut(t, s, i, 200)
	}
	// Supersede everything once: half the on-disk bytes are now dead.
	for i := 0; i < 10; i++ {
		mustPut(t, s, i, 220)
	}
	before := s.Stats()
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.SizeBytes >= before.SizeBytes {
		t.Fatalf("compaction did not shrink: %d -> %d bytes", before.SizeBytes, after.SizeBytes)
	}
	if after.Entries != 10 || after.Compactions != 1 {
		t.Fatalf("stats after compact: %+v", after)
	}
	for i := 0; i < 10; i++ {
		checkGet(t, s, i, 220)
	}
	s.Close()

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if s.Len() != 10 {
		t.Fatalf("reopen after compact: Len = %d, want 10", s.Len())
	}
	if st := s.Stats(); st.Superseded != 0 {
		t.Fatalf("compacted store must hold no dead records: %+v", st)
	}
	for i := 0; i < 10; i++ {
		checkGet(t, s, i, 220)
	}
}

func TestGCEvictsLeastRecentlyReHit(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	for i := 0; i < 10; i++ {
		mustPut(t, s, i, 100)
	}
	// Re-hit the first half: they become the protected hot set even though
	// they are the oldest inserts.
	for i := 0; i < 5; i++ {
		checkGet(t, s, i, 100)
	}
	per := recordLen(100)
	evicted, err := s.GC(6 * per)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if evicted != 4 {
		t.Fatalf("evicted %d entries, want 4", evicted)
	}
	// Victims are the never-re-hit entries, oldest first: 5, 6, 7, 8.
	for _, i := range []int{5, 6, 7, 8} {
		if _, err := s.Get(testKey(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("entry %d should be evicted: %v", i, err)
		}
	}
	for _, i := range []int{0, 1, 2, 3, 4, 9} {
		checkGet(t, s, i, 100)
	}
	if st := s.Stats(); st.GCEvicted != 4 || st.Compactions != 1 {
		t.Fatalf("stats after GC: %+v", st)
	}
}

func TestSizeCapAutoGC(t *testing.T) {
	per := recordLen(100)
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 10 * per, MaxSegmentBytes: 4 * per})
	defer s.Close()
	for i := 0; i < 40; i++ {
		mustPut(t, s, i, 100)
	}
	st := s.Stats()
	if st.LiveBytes > 10*per {
		t.Fatalf("live bytes %d exceed cap %d", st.LiveBytes, 10*per)
	}
	if st.GCEvicted == 0 {
		t.Fatal("size cap never triggered GC")
	}
	// The newest insert always survives its own Put.
	checkGet(t, s, 39, 100)
}

func TestHeaderlessNewestSegmentReplaced(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, 1, 100)
	s.Close()

	// Crash between segment creation and header write: an empty file with
	// the next id.
	if err := os.WriteFile(filepath.Join(dir, "seg-00000002.rcs"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	checkGet(t, s, 1, 100)
	mustPut(t, s, 2, 100)
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("after headerless recovery: Len = %d, want 2", s2.Len())
	}
	checkGet(t, s2, 2, 100)
}

func TestBadLengthStopsSegmentScan(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		mustPut(t, s, i, 100)
	}
	entries := s.Entries()
	s.Close()

	// Smash record 1's length field with an implausible value. There is no
	// trustworthy frame boundary after it, so the scan must stop there and
	// the writable reopen truncates the segment back — records 1 and 2 are
	// lost, record 0 survives.
	seg := newestSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := f.WriteAt(bad, entries[1].Offset); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("after bad length: Len = %d, want 1", s.Len())
	}
	checkGet(t, s, 0, 100)
	// And the store keeps working at the truncated boundary.
	mustPut(t, s, 9, 100)
	checkGet(t, s, 9, 100)
}

func TestLocking(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	mustPut(t, s, 1, 100)

	// A second writable open must be refused while the first holds the
	// exclusive lock.
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second writable Open: %v, want ErrLocked", err)
	}
	// So must a read-only open (shared vs exclusive).
	if _, err := Open(dir, Options{ReadOnly: true}); !errors.Is(err, ErrLocked) {
		t.Fatalf("read-only Open against writer: %v, want ErrLocked", err)
	}
	s.Close()

	// Read-only openers share the lock with each other.
	r1 := mustOpen(t, dir, Options{ReadOnly: true})
	defer r1.Close()
	r2 := mustOpen(t, dir, Options{ReadOnly: true})
	defer r2.Close()
	checkGet(t, r1, 1, 100)
	checkGet(t, r2, 1, 100)
	if err := r1.Put(testKey(2), testVal(2, 10)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Put: %v, want ErrReadOnly", err)
	}
	if err := r1.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Compact: %v, want ErrReadOnly", err)
	}
	// And a writer is excluded while readers hold the shared lock.
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("writable Open against readers: %v, want ErrLocked", err)
	}
}

func TestReadOnlyMissingDir(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only Open of a missing directory must fail, not create it")
	}
}

func TestClosedErrors(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	mustPut(t, s, 1, 10)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Get(testKey(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: %v", err)
	}
	if err := s.Put(testKey(2), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: %v", err)
	}
	if _, err := s.Verify(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Verify after Close: %v", err)
	}
}

func TestEntriesAndRangeOrder(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	for i := 0; i < 5; i++ {
		mustPut(t, s, i, 50)
	}
	mustPut(t, s, 1, 60) // supersede: key 1 moves to the back

	want := []int{0, 2, 3, 4, 1}
	entries := s.Entries()
	if len(entries) != len(want) {
		t.Fatalf("Entries: %d, want %d", len(entries), len(want))
	}
	for i, w := range want {
		if entries[i].Key != testKey(w) {
			t.Fatalf("Entries[%d] = %x, want key %d", i, entries[i].Key[:4], w)
		}
	}
	// Ranging over the listed entries reads each one's live value.
	for _, w := range want {
		n := 50
		if w == 1 {
			n = 60
		}
		checkGet(t, s, w, n)
	}
}

func TestVerifyReportsDamage(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 4; i++ {
		mustPut(t, s, i, 100)
	}
	entries := s.Entries()
	rep, err := s.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.OK != 4 || rep.Corrupt != 0 || rep.Torn != 0 {
		t.Fatalf("clean verify: %+v", rep)
	}
	s.Close()

	// Flip one byte in record 2's value, then verify read-only.
	seg := newestSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	one := []byte{0x01}
	if _, err := f.WriteAt(one, entries[2].Offset+frameLen+int64(keyLen)+3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := mustOpen(t, dir, Options{ReadOnly: true})
	defer r.Close()
	rep, err = r.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.OK != 3 || rep.Corrupt != 1 {
		t.Fatalf("verify after flip: %+v", rep)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxSegmentBytes: 4096})
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = s.Put(testKey(i), testVal(i, 64))
		}
	}()
	for i := 0; i < 200; i++ {
		if v, err := s.Get(testKey(i)); err == nil && !bytes.Equal(v, testVal(i, 64)) {
			t.Errorf("Get(%d): wrong bytes", i)
		}
	}
	<-done
	for i := 0; i < 200; i++ {
		checkGet(t, s, i, 64)
	}
}
