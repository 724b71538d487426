// Package statestore provides a keyed operator state store with
// deterministic full and incremental (delta) snapshots.
//
// The paper's operators (§IV) keep keyed state — join tables, window
// contents, per-key aggregates — whose snapshot cost dominates the
// checkpointing time of the uncoordinated family once the state grows. This
// package factors that state handling out of individual operators:
//
//   - Store is a uint64-keyed map of opaque byte values with dirty tracking;
//   - SnapshotFull / Restore write and read the complete contents;
//   - SnapshotDelta / ApplyDelta write and apply only the keys changed since
//     the previous snapshot (including deletions as tombstones), so frequent
//     checkpoints pay for churn rather than total state size;
//   - CaptureFull / CaptureDelta freeze a copy-on-write view of the same
//     snapshot in O(dirty-set) (delta) or O(live-set) pointer-gather (full)
//     time with no serialization; Capture.MaterializeTo then produces the
//     exact bytes the synchronous snapshot would have, and may run on
//     another goroutine while the store keeps mutating — the mechanism that
//     takes checkpoint serialization off the record path;
//   - Chain manages a base-plus-deltas checkpoint chain with a compaction
//     policy (full snapshot every Nth checkpoint, or when the accumulated
//     delta bytes exceed a fraction of the base).
//
// Snapshots are deterministic: entries are emitted in ascending key order,
// so two stores with equal contents produce byte-identical snapshots
// regardless of insertion order.
//
// # Ownership and capture epochs
//
// Values are owned by the store, and the bytes below a value's length are
// never written once stored: Put copies its input, PutOwned transfers
// ownership of the caller's buffer, and an overwrite or delete simply drops
// the old buffer. Append is the one operation that writes into a stored
// buffer, and only past its length, into spare capacity the store itself
// allocated: PutOwned stores its input capped at its length, and Get and
// Range hand out capped slices, so no buffer a caller or another value can
// reach is ever extended. That is what makes the copy-on-write capture
// shallow — a frozen view shares value buffers (each as a slice of the
// value's length at capture time) with the live store, and concurrent
// mutation replaces map entries or appends past every captured length
// without ever touching the shared bytes.
//
// Restore, ApplyDelta and RebuildInto take snapshot bytes the same way:
// restored values alias the snapshot, capped at their length, instead of
// being copied one by one, so a restore allocates the key map but no value
// buffers. The caller must not modify the snapshot bytes afterwards; the
// store never writes them either (Append copies a capped value out).
//
// The flip side is an aliasing rule for readers: a slice returned by Get is
// a borrowed reference into store-owned memory. Callers must not modify it,
// and must not retain it across a capture epoch (the interval between two
// Capture* calls): once the value is superseded the store is free to reuse
// or scribble the buffer. SetPoison(true) enforces the rule in tests by
// overwriting superseded buffers with 0xDB whenever no live capture pins
// them, so a stale alias reads garbage deterministically instead of
// corrupting silently.
package statestore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"checkmate/internal/wire"
)

// Store is a keyed state store with dirty tracking. It is not safe for
// concurrent use; operator instances are single-threaded, matching the
// engine's execution model. The one sanctioned form of concurrency is a
// Capture being materialized on another goroutine while the owning
// goroutine keeps mutating the store — see CaptureFull/CaptureDelta.
type Store struct {
	m map[uint64][]byte
	// dirty records keys changed since the last snapshot. Deleted keys stay
	// in dirty with no entry in m, producing tombstones in the next delta.
	dirty map[uint64]struct{}
	// seq counts snapshots taken (full or delta); it stamps every snapshot
	// so chains can reject out-of-order application.
	seq uint64
	// bytes tracks the total payload size of live values (overlay and
	// segment layers combined when spilling).
	bytes int
	// count tracks the live logical entry count when spilling (the map
	// alone no longer knows it); unused for a resident-only store.
	count int

	// sp is the spillable backend, nil for a resident-only store. When
	// set, m/dirty/sorted become the in-memory overlay over sp's mmap'd
	// segment layers.
	sp *spill

	// deferred holds superseded value buffers retired while a capture was
	// live: a frozen view may still reference them, so they stay pinned
	// (and, with poison on, unscribbled) until no captures remain.
	// pinnedBytes sums their lengths — resident memory beyond live values
	// that the spill threshold must see. Owner-goroutine only.
	deferred    [][]byte
	pinnedBytes int

	// Incrementally maintained sorted key index. sorted holds the live keys
	// in ascending order as of the last rebuild and is immutable once built
	// (rebuilds allocate a fresh slice, so frozen captures may alias it);
	// added collects keys possibly new since then (unsorted, may contain
	// duplicates after delete/re-add churn) and dead the keys deleted since.
	// index() folds added/dead into a fresh sorted slice lazily, so Range
	// and SnapshotFull pay an O(n) comparator-free merge amortized over the
	// mutations instead of a full O(n log n) sort per call.
	sorted []uint64
	added  []uint64
	dead   map[uint64]struct{}

	// captures counts live (not yet released) frozen views. Decremented by
	// Capture.Release on the materializing goroutine, hence atomic.
	captures atomic.Int32
	// capFree recycles the gather slices of released captures so
	// steady-state captures allocate little beyond growth. Only the slices
	// are pooled — never the Capture struct itself, so a (buggy) duplicate
	// Release on a stale *Capture stays a harmless no-op instead of
	// un-pinning a successor capture's buffers. Guarded by a mutex because
	// Release runs on the materializing goroutine; the lock hand-off also
	// orders the releaser's writes before reuse.
	capFree struct {
		sync.Mutex
		free []captureBuf
	}
	// poison enables the debug mode scribbling superseded value buffers.
	poison bool
}

// New returns an empty store.
func New() *Store {
	return &Store{
		m:     make(map[uint64][]byte),
		dirty: make(map[uint64]struct{}),
		dead:  make(map[uint64]struct{}),
	}
}

// SetPoison toggles the debug mode that scribbles superseded value buffers
// with 0xDB when no live capture pins them, making violations of the Get
// aliasing rule (retaining a returned slice across a capture epoch or past
// the value's lifetime) fail deterministically. Returns the previous
// setting. With poison on, restores copy values instead of aliasing the
// snapshot, which is not the store's to scribble; enable it before
// restoring into the store.
func (s *Store) SetPoison(enabled bool) (prev bool) {
	prev = s.poison
	s.poison = enabled
	return prev
}

// retireBuffer handles a value buffer that just left the store (overwrite,
// delete, or overlay flush). While a capture is live the buffer may still
// be referenced by the frozen view, so it is parked on the deferred list —
// pinned for resident-byte accounting and, in poison mode, scribbled only
// once every capture drained. With no captures it is scribbled (poison
// mode) or simply dropped.
func (s *Store) retireBuffer(b []byte) {
	if len(b) == 0 {
		return
	}
	if s.captures.Load() != 0 {
		s.deferred = append(s.deferred, b)
		s.pinnedBytes += len(b)
		return
	}
	s.scribble(b)
}

// drainDeferred scribbles (poison mode) and drops the deferred buffers
// once no capture is live. Runs on the owner goroutine at every mutation
// and capture point, so the pinned window ends promptly after a release.
func (s *Store) drainDeferred() {
	if len(s.deferred) == 0 || s.captures.Load() != 0 {
		return
	}
	for i, b := range s.deferred {
		s.scribble(b)
		s.deferred[i] = nil
	}
	s.deferred = s.deferred[:0]
	s.pinnedBytes = 0
}

// scribble poisons a buffer that left the store. Buffers inside an mmap'd
// segment are never touched: those pages are shared, read-only state —
// scribbling them would corrupt every reader and fault the process. (A
// segment-backed value can only end up here through an ownership-contract
// violation, e.g. PutOwned of a slice Get returned; the guard keeps even
// that failure mode non-fatal.)
func (s *Store) scribble(b []byte) {
	if !s.poison || s.inMmap(b) {
		return
	}
	for i := range b {
		b[i] = 0xDB
	}
}

// inMmap reports whether b points into one of the store's mapped segment
// images.
func (s *Store) inMmap(b []byte) bool {
	p := s.sp
	if p == nil || len(b) == 0 {
		return false
	}
	addr := uintptr(unsafe.Pointer(&b[0]))
	for _, g := range p.segs {
		if g.contains(addr) {
			return true
		}
	}
	return false
}

// Get returns the value stored under key and whether it exists. The
// returned slice is owned by the store; callers must not modify it, and
// must not retain it across a capture epoch (see the package comment —
// SetPoison enforces this in tests). It is capped at its length, so a
// caller's append copies instead of writing into the store's spare
// capacity.
func (s *Store) Get(key uint64) ([]byte, bool) {
	v, ok := s.m[key]
	if ok || s.sp == nil {
		return v[:len(v):len(v)], ok
	}
	// Spilling: fall through overlay → tombstones → segments newest-first.
	// A hit returns a zero-copy subslice of the mapped segment.
	return s.spillGet(key)
}

// Put stores a copy of value under key.
func (s *Store) Put(key uint64, value []byte) {
	s.putOwned(key, append([]byte(nil), value...))
}

// PutOwned stores value under key without the defensive copy Put takes:
// ownership of the buffer transfers to the store, and the caller must not
// read or write it afterwards. For codec-owned buffers that are already
// exactly sized this removes one copy per write on the record path. The
// value is stored capped at its length: capacity past it may belong to
// another buffer, so Append never extends it in place.
func (s *Store) PutOwned(key uint64, value []byte) {
	s.putOwned(key, value[:len(value):len(value)])
}

// Append extends the value under key by suffix, creating the key when it
// is absent: the same result as Put(key, append(Get(key), suffix...)), at
// amortized O(len(suffix)) cost instead of O(len(value)). A resident value
// grows in place into spare capacity the store allocated; bytes below its
// old length are never written, so captures and Get results taken before
// stay valid. When the capacity runs out the value moves to a buffer of
// twice its length and the old buffer is retired like an overwritten one.
// A value that lives in an mmap'd segment is copied out into the overlay;
// mapped pages are never written.
func (s *Store) Append(key uint64, suffix []byte) {
	old, ok := s.m[key]
	if ok && len(suffix) <= cap(old)-len(old) {
		p := s.sp
		if p != nil && len(old)+len(suffix) > segMaxValueLen {
			panic(fmt.Sprintf("statestore: value of %d bytes exceeds the spillable backend's %d-byte limit", len(old)+len(suffix), segMaxValueLen))
		}
		s.m[key] = append(old, suffix...)
		s.bytes += len(suffix)
		s.dirty[key] = struct{}{}
		if p != nil {
			p.overlayBytes += len(suffix)
			s.maybeSpill()
		} else {
			s.drainDeferred()
		}
		return
	}
	if !ok {
		old, _ = s.Get(key) // absent, or mapped in a segment: read only
	}
	n := len(old) + len(suffix)
	grown := make([]byte, n, 2*n)
	copy(grown, old)
	copy(grown[len(old):], suffix)
	s.putOwned(key, grown)
}

func (s *Store) putOwned(key uint64, value []byte) {
	p := s.sp
	if p != nil && len(value) > segMaxValueLen {
		panic(fmt.Sprintf("statestore: value of %d bytes exceeds the spillable backend's %d-byte limit", len(value), segMaxValueLen))
	}
	old, existed := s.m[key]
	if existed {
		s.bytes -= len(old)
	} else {
		// Key index maintenance: a genuinely new key (or a re-add of a key
		// deleted since the last rebuild) joins the pending additions.
		delete(s.dead, key)
		s.added = append(s.added, key)
		s.maybeFoldIndex()
		if p != nil {
			// Logical accounting against the layers underneath: overlaying
			// a live segment entry replaces it; anything else is a new key.
			if _, dead := p.tomb[key]; dead {
				delete(p.tomb, key)
				s.count++
			} else if sv, ok := p.segLookup(key); ok {
				s.bytes -= len(sv)
			} else {
				s.count++
			}
		}
	}
	s.m[key] = value
	s.bytes += len(value)
	if p != nil {
		if existed {
			p.overlayBytes -= len(old)
		}
		p.overlayBytes += len(value)
	}
	s.dirty[key] = struct{}{}
	if existed {
		s.retireBuffer(old)
	}
	if p != nil {
		s.maybeSpill()
	} else {
		s.drainDeferred()
	}
}

// Delete removes key. Deleting an absent key is a no-op.
func (s *Store) Delete(key uint64) {
	old, ok := s.m[key]
	p := s.sp
	if !ok {
		if p == nil {
			return
		}
		// Spilling: the key may live in a segment layer underneath.
		if _, dead := p.tomb[key]; dead {
			return
		}
		sv, live := p.segLookup(key)
		if !live {
			return
		}
		s.bytes -= len(sv)
		s.count--
		p.tomb[key] = struct{}{}
		s.dirty[key] = struct{}{}
		s.maybeSpill()
		return
	}
	s.bytes -= len(old)
	delete(s.m, key)
	s.dirty[key] = struct{}{}
	s.dead[key] = struct{}{}
	s.maybeFoldIndex()
	if p != nil {
		s.count--
		p.overlayBytes -= len(old)
		// A tombstone is only needed if a layer underneath could still
		// resurface the key on a future flush.
		if len(p.segs) > 0 {
			p.tomb[key] = struct{}{}
		}
	}
	s.retireBuffer(old)
	if p != nil {
		s.maybeSpill()
	} else {
		s.drainDeferred()
	}
}

// maybeFoldIndex folds the pending additions/deletions into the sorted
// index once they outgrow a fraction of the live set, so a store that is
// only ever captured (the asynchronous engine path never calls Range or
// SnapshotFull) still keeps the index bookkeeping bounded under
// delete/re-add churn. The geometric threshold makes the O(n) merge
// amortized O(1) per mutation, like the map's own growth.
func (s *Store) maybeFoldIndex() {
	if len(s.added)+len(s.dead) > len(s.m)/4+64 {
		s.index()
	}
}

// Len reports the number of live entries (across overlay and segment
// layers when spilling).
func (s *Store) Len() int {
	if s.sp != nil {
		return s.count
	}
	return len(s.m)
}

// Bytes reports the total payload size of live values — the logical state
// size, independent of where the bytes reside. Memory-footprint
// accounting, including superseded buffers still pinned by live captures,
// is ResidentBytes.
func (s *Store) Bytes() int { return s.bytes }

// ResidentBytes reports the heap bytes the store currently holds: live
// value payloads resident in memory (the overlay, when spilling; all
// values otherwise), tombstone bookkeeping, and superseded or deleted
// buffers a live capture still pins. It is the quantity the spill
// threshold compares against MaxResidentBytes — tombstoned-but-pinned
// values count, so delete-heavy churn under a slow capture cannot sneak
// past the budget.
func (s *Store) ResidentBytes() int {
	if p := s.sp; p != nil {
		return s.residentBytes(p)
	}
	return s.bytes + s.pinnedBytes
}

// DirtyCount reports the number of keys changed since the last snapshot.
func (s *Store) DirtyCount() int { return len(s.dirty) }

// Seq reports the number of snapshots taken from this store.
func (s *Store) Seq() uint64 { return s.seq }

// Range calls fn for every entry in ascending key order. fn returning false
// stops the iteration. When spilling, this is the two-pointer merge of the
// overlay iterator and the segment iterators (newest source wins,
// tombstones suppress older layers); deleting already-visited keys from fn
// is allowed, as the nexmark window operators do.
func (s *Store) Range(fn func(key uint64, value []byte) bool) {
	if s.sp != nil {
		s.rangeMerged(fn)
		return
	}
	for _, k := range s.index() {
		v := s.m[k]
		if !fn(k, v[:len(v):len(v)]) {
			return
		}
	}
}

// Clear drops all entries and dirty tracking but keeps the snapshot
// sequence.
func (s *Store) Clear() {
	if s.sp != nil {
		s.spillReset()
		s.sp.updateGauges(s)
		return
	}
	s.m = make(map[uint64][]byte)
	s.dirty = make(map[uint64]struct{})
	s.bytes = 0
	s.sorted = nil
	s.added = s.added[:0]
	s.dead = make(map[uint64]struct{})
}

// index returns the live keys in ascending order, folding pending
// additions and deletions into a freshly allocated slice when any exist.
// The returned slice must be treated as immutable: captures and previous
// callers may still alias earlier generations.
func (s *Store) index() []uint64 {
	if len(s.added) == 0 && len(s.dead) == 0 {
		return s.sorted
	}
	added := s.added
	sort.Slice(added, func(i, j int) bool { return added[i] < added[j] })
	// Compact duplicates (delete/re-add churn can append a key twice).
	w := 0
	for i, k := range added {
		if i == 0 || k != added[w-1] {
			added[w] = k
			w++
		}
	}
	added = added[:w]
	merged := make([]uint64, 0, len(s.sorted)+len(added))
	i, j := 0, 0
	emit := func(k uint64) {
		if _, gone := s.dead[k]; !gone {
			merged = append(merged, k)
		}
	}
	for i < len(s.sorted) && j < len(added) {
		switch {
		case s.sorted[i] < added[j]:
			emit(s.sorted[i])
			i++
		case s.sorted[i] > added[j]:
			emit(added[j])
			j++
		default:
			emit(s.sorted[i])
			i++
			j++
		}
	}
	for ; i < len(s.sorted); i++ {
		emit(s.sorted[i])
	}
	for ; j < len(added); j++ {
		emit(added[j])
	}
	s.sorted = merged
	s.added = s.added[:0]
	if len(s.dead) > 0 {
		s.dead = make(map[uint64]struct{})
	}
	return merged
}

func (s *Store) sortedDirty() []uint64 {
	keys := make([]uint64, 0, len(s.dirty))
	for k := range s.dirty {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Snapshot kinds, stamped into every snapshot header.
const (
	kindFull  = 1
	kindDelta = 2
)

// SnapshotFull appends the complete store contents to enc and clears dirty
// tracking. The snapshot is self-contained: Restore rebuilds the store from
// it alone.
func (s *Store) SnapshotFull(enc *wire.Encoder) {
	s.seq++
	enc.Byte(kindFull)
	enc.Uvarint(s.seq)
	if s.sp != nil {
		// Wire-format full snapshot of the merged layers: the portable
		// path that any store can Restore, at the cost of a full
		// serialization pass.
		enc.Uvarint(uint64(s.count))
		s.rangeMerged(func(k uint64, v []byte) bool {
			enc.Uvarint(k)
			enc.Bytes2(v)
			return true
		})
		s.clearDirty()
		return
	}
	enc.Uvarint(uint64(len(s.m)))
	for _, k := range s.index() {
		enc.Uvarint(k)
		enc.Bytes2(s.m[k])
	}
	s.clearDirty()
}

// SnapshotDelta appends only the entries changed since the previous snapshot
// (puts as key/value, deletions as tombstones) and clears dirty tracking.
// The snapshot is only meaningful on top of the store state as of the
// previous snapshot; use Chain to manage base-plus-delta sequences.
func (s *Store) SnapshotDelta(enc *wire.Encoder) {
	s.seq++
	enc.Byte(kindDelta)
	enc.Uvarint(s.seq)
	enc.Uvarint(uint64(len(s.dirty)))
	for _, k := range s.sortedDirty() {
		enc.Uvarint(k)
		if v, ok := s.dirtyLookup(k); ok {
			enc.Bool(true)
			enc.Bytes2(v)
		} else {
			enc.Bool(false)
		}
	}
	s.clearDirty()
}

// dirtyLookup resolves a dirty key to its current value. On a resident
// store dirty keys live in the map or are tombstones; on a spilling store
// a dirty key may have been flushed to a segment since it was touched —
// the segment layers then hold its authoritative state (a flush persists
// overlay tombstones too, so a miss there is a real tombstone).
func (s *Store) dirtyLookup(k uint64) ([]byte, bool) {
	if v, ok := s.m[k]; ok {
		return v, true
	}
	if p := s.sp; p != nil {
		if _, dead := p.tomb[k]; !dead {
			return p.segLookup(k)
		}
	}
	return nil, false
}

func (s *Store) clearDirty() {
	s.dirty = make(map[uint64]struct{})
}

// Capture is a frozen copy-on-write view of one snapshot: the keys and
// value references as of the capture instant, plus the stamped sequence
// number. It shares value buffers with the live store — safe because the
// store never writes below a stored value's length, and the capture reads
// only up to the length at capture time — so taking one costs a pointer
// gather, not a serialization pass.
//
// MaterializeTo may run on any goroutine, concurrently with further store
// mutation, and produces exactly the bytes SnapshotFull/SnapshotDelta would
// have produced at the capture instant. Release must be called exactly once
// when the capture is done (materialized or abandoned); until then the
// store considers the referenced buffers pinned.
type Capture struct {
	store *Store
	full  bool
	seq   uint64
	// keys/vals are aligned pairs, unsorted (sorting happens off-thread in
	// MaterializeTo). For delta captures live[i] distinguishes a put from a
	// tombstone (vals[i] is nil for tombstones).
	keys []uint64
	vals [][]byte
	live []bool
	// estBytes approximates the materialized size for chain-policy
	// decisions that cannot wait for materialization.
	estBytes int
	released bool

	// Spilling stores only: spill marks the capture as materializing to a
	// segment image instead of a wire snapshot, and segs pins the layer
	// list as of the capture instant. Pinned segments back two things:
	// mmap'd values gathered into vals (delta captures of flushed dirty
	// keys) and the k-way merge a full capture materializes from. Release
	// unpins them.
	spill bool
	segs  []*segment
}

// captureBuf is the recyclable gather-slice triple of a released capture.
type captureBuf struct {
	keys []uint64
	vals [][]byte
	live []bool
}

// newCapture returns a fresh capture, reusing a released one's gather
// slices when available so steady-state captures stay allocation-light.
func (s *Store) newCapture() *Capture {
	s.capFree.Lock()
	var buf captureBuf
	if n := len(s.capFree.free); n > 0 {
		buf = s.capFree.free[n-1]
		s.capFree.free[n-1] = captureBuf{}
		s.capFree.free = s.capFree.free[:n-1]
	}
	s.capFree.Unlock()
	return &Capture{
		store: s,
		keys:  buf.keys[:0],
		vals:  buf.vals[:0],
		live:  buf.live[:0],
	}
}

// CaptureFull freezes a full snapshot of the store in one O(live-set)
// pointer-gather pass — no sort, no serialization — and clears dirty
// tracking, exactly as SnapshotFull would.
func (s *Store) CaptureFull() *Capture {
	s.drainDeferred()
	c := s.newCapture()
	s.seq++
	c.full = true
	c.seq = s.seq
	est := 0
	if p := s.sp; p != nil {
		// Spilling: freeze the overlay (tombstones included, they suppress
		// segment entries during the merge) and pin the layer list. The
		// gather is O(overlay) — bounded by the spill policy — no matter
		// how large the total state is; the O(state) merge happens at
		// materialization, off the record path.
		c.spill = true
		for k, v := range s.m {
			c.keys = append(c.keys, k)
			c.vals = append(c.vals, v)
			c.live = append(c.live, true)
			est += len(v) + perEntryOverhead
		}
		for k := range p.tomb {
			c.keys = append(c.keys, k)
			c.vals = append(c.vals, nil)
			c.live = append(c.live, false)
		}
		c.segs = p.pinSegs()
		for _, g := range c.segs {
			est += int(g.liveB) + g.liveN*perEntryOverhead
		}
	} else {
		for k, v := range s.m {
			c.keys = append(c.keys, k)
			c.vals = append(c.vals, v)
			est += len(v) + perEntryOverhead
		}
	}
	c.estBytes = est + snapshotHeaderOverhead
	s.clearDirty()
	s.captures.Add(1)
	return c
}

// CaptureDelta freezes a delta snapshot (the dirty set, tombstones
// included) in O(dirty-set) time and clears dirty tracking, exactly as
// SnapshotDelta would.
func (s *Store) CaptureDelta() *Capture {
	s.drainDeferred()
	c := s.newCapture()
	s.seq++
	c.seq = s.seq
	est := 0
	if p := s.sp; p != nil {
		// Spilling: a dirty key may have been flushed since it was
		// touched; resolve it from the layers (mmap'd values stay valid —
		// the capture pins the segments below).
		c.spill = true
		for k := range s.dirty {
			v, ok := s.dirtyLookup(k)
			c.keys = append(c.keys, k)
			c.vals = append(c.vals, v)
			c.live = append(c.live, ok)
			est += len(v) + perEntryOverhead
		}
		c.segs = p.pinSegs()
	} else {
		for k := range s.dirty {
			v, ok := s.m[k]
			c.keys = append(c.keys, k)
			c.vals = append(c.vals, v)
			c.live = append(c.live, ok)
			est += len(v) + perEntryOverhead
		}
	}
	c.estBytes = est + snapshotHeaderOverhead
	s.clearDirty()
	s.captures.Add(1)
	return c
}

// Rough varint/flag cost per snapshot entry and per header, for the
// pre-materialization size estimate.
const (
	perEntryOverhead       = 10
	snapshotHeaderOverhead = 12
)

// Full reports whether the capture holds a full or a delta snapshot.
func (c *Capture) Full() bool { return c.full }

// Seq reports the snapshot sequence number stamped at capture time.
func (c *Capture) Seq() uint64 { return c.seq }

// Len reports the number of captured entries.
func (c *Capture) Len() int { return len(c.keys) }

// EstimatedBytes approximates the materialized snapshot size.
func (c *Capture) EstimatedBytes() int { return c.estBytes }

// MaterializeTo appends the snapshot encoding to enc: byte-identical to
// what SnapshotFull (full captures) or SnapshotDelta (delta captures) would
// have appended at the capture instant. Safe to call from a goroutine other
// than the store owner's; the capture's pairs are sorted in place here, off
// the record path.
func (c *Capture) MaterializeTo(enc *wire.Encoder) {
	if c.spill {
		// Spilling stores materialize segment images, not wire snapshots:
		// the blob *is* an on-disk layer, so restore maps it instead of
		// decoding it. See materializeSpill.
		c.materializeSpill(enc)
		return
	}
	sort.Sort((*capturePairs)(c))
	if c.full {
		enc.Byte(kindFull)
		enc.Uvarint(c.seq)
		enc.Uvarint(uint64(len(c.keys)))
		for i, k := range c.keys {
			enc.Uvarint(k)
			enc.Bytes2(c.vals[i])
		}
		return
	}
	enc.Byte(kindDelta)
	enc.Uvarint(c.seq)
	enc.Uvarint(uint64(len(c.keys)))
	for i, k := range c.keys {
		enc.Uvarint(k)
		if c.live[i] {
			enc.Bool(true)
			enc.Bytes2(c.vals[i])
		} else {
			enc.Bool(false)
		}
	}
}

// Release unpins the capture's value buffers and recycles the gather
// slices for the store's next capture. Call it once per capture, after
// MaterializeTo or when the capture is abandoned. Duplicate calls are
// no-ops: the Capture struct itself is never reused, so the released flag
// stays authoritative for the capture's whole lifetime.
func (c *Capture) Release() {
	if c.released {
		return
	}
	c.released = true
	s := c.store
	// Drop the value references before pooling so a parked gather buffer
	// does not pin superseded value buffers against the garbage collector.
	for i := range c.vals {
		c.vals[i] = nil
	}
	// Unpin the segment layers (spilling stores). This must never poison
	// the mmap'd values the capture referenced: the pages are shared,
	// read-only state of the live store. Releasing a reference is the
	// whole teardown; the last reference (the store's, or a newer
	// capture's) controls unmapping.
	for i, g := range c.segs {
		g.release()
		c.segs[i] = nil
	}
	c.segs = nil
	buf := captureBuf{keys: c.keys, vals: c.vals, live: c.live}
	c.keys, c.vals, c.live = nil, nil, nil
	s.capFree.Lock()
	if len(s.capFree.free) < maxPooledCaptures {
		s.capFree.free = append(s.capFree.free, buf)
	}
	s.capFree.Unlock()
	s.captures.Add(-1)
}

// maxPooledCaptures bounds the per-store capture free list; more than a
// couple of checkpoints rarely overlap.
const maxPooledCaptures = 4

// capturePairs sorts a capture's aligned slices by key.
type capturePairs Capture

func (p *capturePairs) Len() int           { return len(p.keys) }
func (p *capturePairs) Less(i, j int) bool { return p.keys[i] < p.keys[j] }
func (p *capturePairs) Swap(i, j int) {
	p.keys[i], p.keys[j] = p.keys[j], p.keys[i]
	p.vals[i], p.vals[j] = p.vals[j], p.vals[i]
	if len(p.live) > 0 { // delta captures only; empty for full ones
		p.live[i], p.live[j] = p.live[j], p.live[i]
	}
}

// restoredValue is how a value decoded from a snapshot enters the store:
// aliasing the snapshot bytes, capped at its length so Append copies it out
// instead of extending it over the next entry; copied in poison mode.
func (s *Store) restoredValue(v []byte) []byte {
	if s.poison {
		return append([]byte(nil), v...)
	}
	return v[:len(v):len(v)]
}

// Restore replaces the store contents with a full snapshot read from dec.
// Restored values alias dec's bytes (see the package comment), so they
// must not be modified afterwards.
func (s *Store) Restore(dec *wire.Decoder) error {
	kind := dec.Byte()
	if dec.Err() != nil {
		return dec.Err()
	}
	if kind != kindFull {
		return fmt.Errorf("statestore: Restore on snapshot kind %d (want full)", kind)
	}
	seq := dec.Uvarint()
	n := int(dec.Uvarint())
	if dec.Err() != nil {
		return dec.Err()
	}
	if s.sp != nil {
		return s.spillRestoreWire(dec, seq, n)
	}
	m := make(map[uint64][]byte, n)
	sorted := make([]uint64, 0, n)
	bytes := 0
	for i := 0; i < n; i++ {
		k := dec.Uvarint()
		v := dec.Bytes()
		if dec.Err() != nil {
			return dec.Err()
		}
		v = s.restoredValue(v)
		m[k] = v
		// Snapshots are emitted in ascending key order, so the decoded key
		// sequence rebuilds the sorted index directly.
		sorted = append(sorted, k)
		bytes += len(v)
	}
	s.m = m
	s.bytes = bytes
	s.seq = seq
	s.sorted = sorted
	s.added = s.added[:0]
	s.dead = make(map[uint64]struct{})
	s.clearDirty()
	return nil
}

// ApplyDelta layers a delta snapshot read from dec on top of the current
// contents. The delta's sequence number must be exactly one past the
// store's, guaranteeing in-order chain application. Like Restore, it keeps
// references into dec's bytes.
func (s *Store) ApplyDelta(dec *wire.Decoder) error {
	kind := dec.Byte()
	if dec.Err() != nil {
		return dec.Err()
	}
	if kind != kindDelta {
		return fmt.Errorf("statestore: ApplyDelta on snapshot kind %d (want delta)", kind)
	}
	seq := dec.Uvarint()
	if seq != s.seq+1 {
		return fmt.Errorf("statestore: delta seq %d applied to store at seq %d", seq, s.seq)
	}
	n := int(dec.Uvarint())
	if dec.Err() != nil {
		return dec.Err()
	}
	for i := 0; i < n; i++ {
		k := dec.Uvarint()
		live := dec.Bool()
		if live {
			v := dec.Bytes()
			if dec.Err() != nil {
				return dec.Err()
			}
			// Route through putOwned so the key index stays consistent.
			s.putOwned(k, s.restoredValue(v))
		} else {
			s.Delete(k)
		}
		if dec.Err() != nil {
			return dec.Err()
		}
	}
	s.seq = seq
	s.clearDirty()
	return nil
}

// SnapshotKind reports whether blob holds a full or a delta snapshot and its
// sequence number, without decoding the contents. Both wire-format
// snapshots and spill-mode segment images are recognized (the segment
// magic's first byte is disjoint from the wire kind bytes).
func SnapshotKind(blob []byte) (full bool, seq uint64, err error) {
	if isSegmentBlob(blob) {
		return segmentBlobHeader(blob)
	}
	dec := wire.NewDecoder(blob)
	kind := dec.Byte()
	seq = dec.Uvarint()
	if dec.Err() != nil {
		return false, 0, dec.Err()
	}
	switch kind {
	case kindFull:
		return true, seq, nil
	case kindDelta:
		return false, seq, nil
	default:
		return false, 0, fmt.Errorf("statestore: unknown snapshot kind %d", kind)
	}
}
