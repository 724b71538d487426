package statestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"checkmate/internal/wire"
)

func newSpillStore(t *testing.T, maxBytes, maxEntries int) *Store {
	t.Helper()
	s, err := NewSpilling(SpillConfig{
		Dir:               t.TempDir(),
		MaxResidentBytes:  maxBytes,
		MaxOverlayEntries: maxEntries,
	})
	if err != nil {
		t.Fatalf("NewSpilling: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func dumpStore(s *Store) map[uint64]string {
	out := make(map[uint64]string)
	s.Range(func(k uint64, v []byte) bool {
		out[k] = string(v)
		return true
	})
	return out
}

func requireEqualStores(t *testing.T, want, got *Store, label string) {
	t.Helper()
	wd, gd := dumpStore(want), dumpStore(got)
	if len(wd) != len(gd) {
		t.Fatalf("%s: %d entries, want %d", label, len(gd), len(wd))
	}
	for k, v := range wd {
		if gv, ok := gd[k]; !ok || gv != v {
			t.Fatalf("%s: key %d = %q, want %q (present=%v)", label, k, gv, v, ok)
		}
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len() = %d, want %d", label, got.Len(), want.Len())
	}
	if got.Bytes() != want.Bytes() {
		t.Fatalf("%s: Bytes() = %d, want %d", label, got.Bytes(), want.Bytes())
	}
}

// applyRandomOps drives the same pseudo-random put/delete/get stream into
// every store, returning the rng for further use.
func applySpillOps(t *testing.T, rng *rand.Rand, n int, keySpace uint64, stores ...*Store) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := rng.Uint64() % keySpace
		switch rng.Intn(10) {
		case 0, 1, 2:
			for _, s := range stores {
				s.Delete(k)
			}
		default:
			v := []byte(fmt.Sprintf("v%d-%d", k, i))
			for _, s := range stores {
				s.Put(k, v)
			}
		}
		if i%7 == 0 {
			kk := rng.Uint64() % keySpace
			var ref []byte
			var refOK bool
			for j, s := range stores {
				v, ok := s.Get(kk)
				if j == 0 {
					ref, refOK = append([]byte(nil), v...), ok
					continue
				}
				if ok != refOK || (ok && !bytes.Equal(v, ref)) {
					t.Fatalf("op %d: Get(%d) diverged: (%q,%v) vs (%q,%v)", i, kk, v, ok, ref, refOK)
				}
			}
		}
	}
}

// TestSpillEquivalenceRandomOps checks that a spilling store with
// aggressive flush thresholds behaves exactly like the resident store
// under a random workload, including Len/Bytes accounting and Range order.
func TestSpillEquivalenceRandomOps(t *testing.T) {
	plain := New()
	sp := newSpillStore(t, 512, 32) // tiny budgets: many layers
	rng := rand.New(rand.NewSource(1))
	applySpillOps(t, rng, 4000, 300, plain, sp)
	if st := sp.SpillStats(); st.Spills == 0 {
		t.Fatalf("expected spills under a 512-byte budget, got %+v", st)
	}
	requireEqualStores(t, plain, sp, "after random ops")

	// Range must yield ascending keys.
	last := int64(-1)
	sp.Range(func(k uint64, _ []byte) bool {
		if int64(k) <= last {
			t.Fatalf("Range out of order: %d after %d", k, last)
		}
		last = int64(k)
		return true
	})
}

// TestSpillChainRoundTrip runs a base+delta chain over a spilling store —
// captures materialize segment images — and rebuilds the blobs into both
// a spilling and a resident store.
func TestSpillChainRoundTrip(t *testing.T) {
	ref := New()
	sp := newSpillStore(t, 1024, 64)
	chain := NewStreamingChain(ChainPolicy{MaxDeltas: 4})
	rng := rand.New(rand.NewSource(2))

	var blobs [][]byte
	takeCkpt := func() {
		cap, full := chain.CaptureCheckpoint(sp)
		enc := wire.NewEncoder(nil)
		cap.MaterializeTo(enc)
		cap.Release()
		blob := append([]byte(nil), enc.Bytes()...)
		if full {
			blobs = blobs[:0]
		}
		blobs = append(blobs, blob)
		// Keep the reference store's dirty tracking in step.
		refEnc := wire.NewEncoder(nil)
		if full {
			ref.SnapshotFull(refEnc)
		} else {
			ref.SnapshotDelta(refEnc)
		}
	}

	for round := 0; round < 13; round++ {
		applySpillOps(t, rng, 500, 200, ref, sp)
		takeCkpt()
	}

	restoredSpill := newSpillStore(t, 1024, 64)
	if err := RebuildInto(restoredSpill, blobs); err != nil {
		t.Fatalf("RebuildInto(spill): %v", err)
	}
	requireEqualStores(t, ref, restoredSpill, "rebuilt spilling store")

	restoredPlain := New()
	if err := RebuildInto(restoredPlain, blobs); err != nil {
		t.Fatalf("RebuildInto(plain): %v", err)
	}
	requireEqualStores(t, ref, restoredPlain, "rebuilt resident store")

	// Segment blobs carry kind/seq for the engine's chain bookkeeping.
	full, _, err := SnapshotKind(blobs[0])
	if err != nil || !full {
		t.Fatalf("SnapshotKind(base) = full=%v err=%v, want full", full, err)
	}
	if len(blobs) > 1 {
		full, _, err = SnapshotKind(blobs[1])
		if err != nil || full {
			t.Fatalf("SnapshotKind(delta) = full=%v err=%v, want delta", full, err)
		}
	}
}

// TestSpillSavepointRoundTrip exercises the portable wire-format path:
// SnapshotFull of a spilling store restored into a resident store and
// vice versa, so wire-format blobs move between the two backends.
func TestSpillSavepointRoundTrip(t *testing.T) {
	ref := New()
	sp := newSpillStore(t, 256, 16)
	rng := rand.New(rand.NewSource(3))
	applySpillOps(t, rng, 2000, 150, ref, sp)

	enc := wire.NewEncoder(nil)
	sp.SnapshotFull(enc)
	plain := New()
	if err := plain.Restore(wire.NewDecoder(enc.Bytes())); err != nil {
		t.Fatalf("Restore(plain ← spill): %v", err)
	}
	requireEqualStores(t, ref, plain, "resident store from spill savepoint")

	enc2 := wire.NewEncoder(nil)
	plain.SnapshotFull(enc2)
	sp2 := newSpillStore(t, 256, 16)
	if err := sp2.Restore(wire.NewDecoder(enc2.Bytes())); err != nil {
		t.Fatalf("Restore(spill ← plain): %v", err)
	}
	requireEqualStores(t, ref, sp2, "spilling store from wire savepoint")
	if st := sp2.SpillStats(); st.Spills == 0 {
		t.Fatalf("wire restore of %d bytes should have spilled under a 256-byte budget: %+v", ref.Bytes(), st)
	}
}

// TestSpillCompaction drives enough flushes to trigger background merges
// and verifies contents and accounting survive the swap.
func TestSpillCompaction(t *testing.T) {
	ref := New()
	sp := newSpillStore(t, 128, 8)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		applySpillOps(t, rng, 200, 100, ref, sp)
	}
	// Nudge the owner goroutine until a pending merge (if any) is applied.
	for i := 0; i < 100 && sp.SpillStats().Compactions == 0; i++ {
		sp.Put(uint64(100+i%3), []byte("nudge"))
		ref.Put(uint64(100+i%3), []byte("nudge"))
	}
	st := sp.SpillStats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after %d spills (segments=%d)", st.Spills, st.Segments)
	}
	if st.Errors != 0 {
		t.Fatalf("spill errors: %+v", st)
	}
	requireEqualStores(t, ref, sp, "after compaction")
}

// TestSpillResidentAccounting pins the resident-byte invariant the spill
// threshold depends on: deleted (tombstoned) values whose buffers a live
// capture still pins stay in ResidentBytes until the capture is released,
// while logical Bytes() drops immediately.
func TestSpillResidentAccounting(t *testing.T) {
	for _, spilling := range []bool{false, true} {
		name := "resident"
		if spilling {
			name = "spilling"
		}
		t.Run(name, func(t *testing.T) {
			var s *Store
			if spilling {
				s = newSpillStore(t, 1<<20, 1<<20) // budgets high: no flush interference
			} else {
				s = New()
			}
			val := make([]byte, 1000)
			s.Put(1, val)
			s.Put(2, val)
			base := s.Bytes()
			if base != 2000 {
				t.Fatalf("Bytes() = %d, want 2000", base)
			}
			if rb := s.ResidentBytes(); rb < 2000 {
				t.Fatalf("ResidentBytes() = %d, want >= 2000", rb)
			}

			cap := s.CaptureDelta()
			s.Delete(1)         // tombstoned, buffer pinned by the capture
			s.Put(2, val[:100]) // superseded, buffer pinned by the capture
			if got := s.Bytes(); got != 100 {
				t.Fatalf("Bytes() after delete/overwrite = %d, want 100", got)
			}
			if rb := s.ResidentBytes(); rb < 2100 {
				t.Fatalf("ResidentBytes() with pinned buffers = %d, want >= 2100 (tombstoned-but-pinned values must count)", rb)
			}

			enc := wire.NewEncoder(nil)
			cap.MaterializeTo(enc)
			cap.Release()
			s.Put(3, []byte("x")) // owner-side drain point
			if rb := s.ResidentBytes(); rb >= 2100 {
				t.Fatalf("ResidentBytes() after release = %d, want < 2100 (pins drained)", rb)
			}
		})
	}
}

// TestSpillPoisonGuardsMmapValues is the Release/poison safety test: a
// capture whose values point into mmap'd segments must survive poison
// mode — Release and the deferred-poison drain must never scribble mapped
// pages (they are shared, read-only state; writing them would fault).
func TestSpillPoisonGuardsMmapValues(t *testing.T) {
	s := newSpillStore(t, 1, 1) // flush on every mutation
	s.SetPoison(true)
	for i := uint64(0); i < 50; i++ {
		s.Put(i, []byte(fmt.Sprintf("value-%d", i)))
	}
	if st := s.SpillStats(); st.Segments == 0 {
		t.Fatalf("expected segment layers, got %+v", st)
	}
	// Dirty the keys, then flush them out of the overlay so the next delta
	// capture resolves them from the mmap'd segments.
	for i := uint64(0); i < 50; i++ {
		s.Put(i, []byte(fmt.Sprintf("value2-%d", i)))
	}
	cap := s.CaptureDelta()
	// Mutate under the live capture (deferred-poison entries accumulate),
	// then materialize: the capture's values are mmap-backed.
	for i := uint64(0); i < 50; i += 2 {
		s.Put(i, []byte("post-capture"))
		s.Delete(i + 1)
	}
	enc := wire.NewEncoder(nil)
	cap.MaterializeTo(enc)
	cap.Release()
	s.Put(1000, []byte("drain")) // drain the deferred list with poison on

	// The materialized delta must hold the values as of capture time,
	// un-scribbled.
	restored := New()
	restored.seq = cap.Seq() - 1
	if err := applyDeltaAny(restored, enc.Bytes()); err != nil {
		t.Fatalf("applyDeltaAny: %v", err)
	}
	for i := uint64(0); i < 50; i++ {
		v, ok := restored.Get(i)
		if !ok || string(v) != fmt.Sprintf("value2-%d", i) {
			t.Fatalf("key %d = %q (ok=%v), want %q — mmap'd capture values were corrupted", i, v, ok, fmt.Sprintf("value2-%d", i))
		}
	}
	// And the live store must still read clean values from its segments.
	for i := uint64(0); i < 50; i += 2 {
		if v, ok := s.Get(i); !ok || string(v) != "post-capture" {
			t.Fatalf("live key %d = %q (ok=%v)", i, v, ok)
		}
	}
}

// TestSegmentCorruption flips every byte of a small segment's header and
// index and asserts open fails cleanly — checksum (or structural) error,
// never a panic or a silent success.
func TestSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	emit := func(yield func(uint64, []byte, bool) bool) {
		for i := 0; i < 8; i++ {
			var v []byte
			tomb := i%3 == 2
			if !tomb {
				v = []byte(fmt.Sprintf("val-%d", i))
			}
			if !yield(uint64(i*10), v, tomb) {
				return
			}
		}
	}
	var dataLen int64
	count := 0
	emit(func(_ uint64, v []byte, _ bool) bool { count++; dataLen += int64(len(v)); return true })
	path, err := writeSegmentFile(dir, "good.ckseg", 0, 7, count, dataLen, emit)
	if err != nil {
		t.Fatalf("writeSegmentFile: %v", err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g, err := openSegment(path); err != nil {
		t.Fatalf("pristine segment failed to open: %v", err)
	} else {
		g.release()
		// release deletes the file; rewrite it for the corruption loop.
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	indexEnd := segHeaderSize + count*segEntrySize
	for off := 0; off < indexEnd; off++ {
		for _, flip := range []byte{0xFF, 0x01} {
			bad := append([]byte(nil), good...)
			bad[off] ^= flip
			p := filepath.Join(dir, "bad.ckseg")
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			g, err := openSegment(p)
			if err == nil {
				g.release()
				t.Fatalf("flipping byte %d (of %d) with %#x went undetected", off, indexEnd, flip)
			}
		}
	}

	// Truncations must fail too, not crash.
	for _, n := range []int{0, 4, segHeaderSize - 1, segHeaderSize, len(good) - 1} {
		p := filepath.Join(dir, "short.ckseg")
		if err := os.WriteFile(p, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if g, err := openSegment(p); err == nil {
			g.release()
			t.Fatalf("truncated segment (%d bytes) opened successfully", n)
		}
	}
}

// TestSegmentValueBounds rejects index entries whose value ranges escape
// the data region even when the checksum is recomputed to match — the
// cast-after-validate contract.
func TestSegmentValueBounds(t *testing.T) {
	dir := t.TempDir()
	path, err := writeSegmentFile(dir, "v.ckseg", 0, 1, 1, 5, func(yield func(uint64, []byte, bool) bool) {
		yield(42, []byte("hello"), false)
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Point the entry past the data region and fix up the checksum.
	binary.LittleEndian.PutUint64(b[segHeaderSize+8:], packEntry(3, 5, false))
	patchSegCRC(b, 1)
	if _, _, _, err := validateSegment(b); err == nil {
		t.Fatal("out-of-bounds value range went undetected")
	}
}

// patchSegCRC recomputes a segment image's checksum (test helper for
// crafting structurally-corrupt-but-checksummed inputs).
func patchSegCRC(b []byte, count int) {
	indexEnd := segHeaderSize + count*segEntrySize
	crc := crc32.Update(0, segCRCTable, b[:40])
	crc = crc32.Update(crc, segCRCTable, b[44:indexEnd])
	binary.LittleEndian.PutUint32(b[40:], crc)
}

// TestSpillCloseRemovesFiles verifies teardown deletes segment files once
// nothing pins them.
func TestSpillCloseRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSpilling(SpillConfig{Dir: dir, MaxResidentBytes: 1, MaxOverlayEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		s.Put(i, []byte("some value bytes"))
	}
	if st := s.SpillStats(); st.Segments == 0 {
		t.Fatalf("no segments: %+v", st)
	}
	s.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Fatalf("segment file %s survived Close", e.Name())
	}
}

// TestSyncSegDirReportsErrors checks the directory fsync behind every
// segment rename reports failure instead of swallowing it.
func TestSyncSegDirReportsErrors(t *testing.T) {
	dir := t.TempDir()
	if err := syncSegDir(dir); err != nil {
		t.Fatalf("syncSegDir on a live directory: %v", err)
	}
	if err := syncSegDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("syncSegDir on a missing directory returned nil")
	}
}
