package statestore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"checkmate/internal/trace"
	"checkmate/internal/wire"
)

// This file implements the spillable backend behind the Store API: an
// in-memory dirty overlay (the plain store's map, dirty set and sorted key
// index, reused unchanged) layered over immutable mmap'd sorted segments.
//
// The layering maps 1:1 onto the base+delta checkpoint chain: a chain base
// *is* a (merged, tombstone-free) segment and a delta *is* an overlay
// flush, so the capture/materialize/upload pipeline works unchanged — it
// just emits segment images instead of wire snapshots — and restore
// becomes "write blob to disk, mmap, validate header+index" instead of a
// per-entry decode.
//
// Reads fall through overlay → segments newest-first; Range and full
// snapshots run a k-way merge of the overlay iterator and the segment
// iterators. A background goroutine compacts the segment list by the same
// merge (tombstones dropped, since a compaction always covers down to the
// bottom layer) and hands the merged segment back to the owner goroutine
// over a channel; segments are reference-counted so captures pinning
// mmap'd values keep them alive across the swap.

// SpillConfig configures the spillable backend of a Store.
type SpillConfig struct {
	// Dir is the directory holding this store's segment files; created if
	// missing. Required.
	Dir string
	// MaxResidentBytes flushes the overlay to a segment once the store's
	// resident bytes — live overlay values, tombstone bookkeeping and
	// superseded buffers still pinned by live captures — exceed it.
	// <= 0 applies DefaultSpillMaxResidentBytes.
	MaxResidentBytes int
	// MaxOverlayEntries flushes once the overlay holds this many entries
	// (live + tombstones). <= 0 applies DefaultSpillMaxOverlayEntries.
	MaxOverlayEntries int
	// Track receives state.spill / state.compact_swap spans from the owner
	// goroutine; CompactTrack receives state.compact spans from the
	// background merge goroutine. Both may be nil.
	Track        *trace.Track
	CompactTrack *trace.Track
}

// Spill policy defaults.
const (
	DefaultSpillMaxResidentBytes  = 64 << 20
	DefaultSpillMaxOverlayEntries = 128 << 10

	// spillTombBytes is the resident-accounting cost of one overlay
	// tombstone (map entry, no value), so delete-heavy churn still
	// triggers flushes.
	spillTombBytes = 16

	// compactMinSegments starts a background merge once the layer list
	// grows past this many segments.
	compactMinSegments = 6
)

// SpillStats is a point-in-time summary of one spilling store, readable
// from any goroutine (gauges are mirrored into atomics by the owner).
type SpillStats struct {
	ResidentBytes int64 // overlay + pinned buffers the spill threshold sees
	MappedBytes   int64 // summed size of mmap'd segment files
	Segments      int64
	Spills        uint64 // overlay flushes performed
	Compactions   uint64 // background merges applied
	Errors        uint64 // failed flushes/compactions (store degrades to resident)
}

// spill is the spillable-backend state hanging off a Store.
type spill struct {
	cfg SpillConfig
	// segs is the layer list, newest first. Owner-goroutine only;
	// immutable segments are shared with captures via refcounts.
	segs []*segment
	// tomb holds overlay tombstones: keys deleted that may still exist in
	// a segment underneath. Disjoint from the overlay map. Cleared only by
	// a flush (which persists them as tombstone entries), never by
	// snapshot-dirty clearing.
	tomb map[uint64]struct{}
	// overlayBytes sums live overlay value bytes.
	overlayBytes int
	fileSeq      uint64 // segment file name counter

	// Gauges mirrored for concurrent /metrics readers.
	residentG atomic.Int64
	mappedG   atomic.Int64
	segsG     atomic.Int64
	spills    atomic.Uint64
	compacts  atomic.Uint64
	errs      atomic.Uint64

	// Background compaction: the owner sends a pinned snapshot of the
	// layer list, the compactor merges it into one segment file and posts
	// the result; the owner swaps it in at the next store operation. At
	// most one merge is in flight.
	compactCh  chan []*segment
	resultCh   chan compactResult
	compactSrc []*segment
	inFlight   bool
	wg         sync.WaitGroup
	closed     bool
}

type compactResult struct {
	out *segment
	err error
}

// NewSpilling returns an empty store backed by the spillable backend:
// same API and snapshot semantics as New, but keyed state beyond the
// configured resident budget lives in mmap'd segment files under cfg.Dir.
func NewSpilling(cfg SpillConfig) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("statestore: NewSpilling requires a segment directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("statestore: create spill dir: %w", err)
	}
	if cfg.MaxResidentBytes <= 0 {
		cfg.MaxResidentBytes = DefaultSpillMaxResidentBytes
	}
	if cfg.MaxOverlayEntries <= 0 {
		cfg.MaxOverlayEntries = DefaultSpillMaxOverlayEntries
	}
	s := New()
	p := &spill{
		cfg:       cfg,
		tomb:      make(map[uint64]struct{}),
		compactCh: make(chan []*segment, 1),
		resultCh:  make(chan compactResult, 1),
	}
	p.wg.Add(1)
	go p.runCompactor()
	s.sp = p
	return s, nil
}

// Spilling reports whether the store uses the spillable backend.
func (s *Store) Spilling() bool { return s.sp != nil }

// SpillStats returns the spilling gauges; zero for a resident-only store.
// Safe to call from any goroutine.
func (s *Store) SpillStats() SpillStats {
	p := s.sp
	if p == nil {
		return SpillStats{}
	}
	return SpillStats{
		ResidentBytes: p.residentG.Load(),
		MappedBytes:   p.mappedG.Load(),
		Segments:      p.segsG.Load(),
		Spills:        p.spills.Load(),
		Compactions:   p.compacts.Load(),
		Errors:        p.errs.Load(),
	}
}

// Close stops the background compactor and drops the store's segment
// references. Captures still pinning segments keep them (and their files)
// alive until released; everything else is unmapped and deleted. The
// store itself remains usable as a resident-only map afterwards, but
// closing is meant for teardown. No-op on a resident-only store.
func (s *Store) Close() {
	p := s.sp
	if p == nil || p.closed {
		return
	}
	p.closed = true
	close(p.compactCh)
	p.wg.Wait()
	select {
	case res := <-p.resultCh:
		if res.out != nil {
			res.out.release()
		}
	default:
	}
	p.inFlight = false
	p.compactSrc = nil
	for _, g := range p.segs {
		g.release()
	}
	p.segs = nil
	p.updateGauges(s)
}

// --- owner-side policy ----------------------------------------------------

// residentBytes is what the spill threshold sees: live overlay values,
// tombstone bookkeeping, and superseded buffers still pinned by live
// captures (see Store.retireBuffer).
func (s *Store) residentBytes(p *spill) int {
	return p.overlayBytes + spillTombBytes*len(p.tomb) + s.pinnedBytes
}

// maybeSpill runs after every mutation on a spilling store: apply a
// finished compaction if one is ready, then flush the overlay if the
// resident budget or entry cap is exceeded.
func (s *Store) maybeSpill() {
	p := s.sp
	if p == nil {
		return
	}
	s.drainDeferred()
	p.applyCompaction()
	if len(s.m)+len(p.tomb) > 0 &&
		(s.residentBytes(p) > p.cfg.MaxResidentBytes || len(s.m)+len(p.tomb) > p.cfg.MaxOverlayEntries) {
		s.spillFlush()
	}
	p.updateGauges(s)
}

func (p *spill) updateGauges(s *Store) {
	p.residentG.Store(int64(s.residentBytes(p)))
	var mapped int64
	for _, g := range p.segs {
		mapped += g.segSize()
	}
	p.mappedG.Store(mapped)
	p.segsG.Store(int64(len(p.segs)))
}

// spillFlush writes the entire overlay — live entries and tombstones — as
// a new top segment layer and clears it. Dirty tracking is deliberately
// preserved: a later delta capture resolves flushed dirty keys from the
// segments, so checkpoint cadence and spill cadence stay independent.
// On a write error the store degrades to resident (overlay kept).
func (s *Store) spillFlush() {
	p := s.sp
	if len(s.m) == 0 && len(p.tomb) == 0 {
		return
	}
	ts := p.cfg.Track.Begin()
	live := s.index()
	tombs := make([]uint64, 0, len(p.tomb))
	for k := range p.tomb {
		tombs = append(tombs, k)
	}
	sort.Slice(tombs, func(i, j int) bool { return tombs[i] < tombs[j] })
	count := len(live) + len(tombs)
	dataLen := int64(p.overlayBytes)
	emit := func(yield func(k uint64, v []byte, tomb bool) bool) {
		i, j := 0, 0
		for i < len(live) || j < len(tombs) {
			if i < len(live) && (j >= len(tombs) || live[i] < tombs[j]) {
				if !yield(live[i], s.m[live[i]], false) {
					return
				}
				i++
			} else {
				if !yield(tombs[j], nil, true) {
					return
				}
				j++
			}
		}
	}
	p.fileSeq++
	name := fmt.Sprintf("seg-%08d.ckseg", p.fileSeq)
	path, err := writeSegmentFile(p.cfg.Dir, name, 0, s.seq, count, dataLen, emit)
	if err != nil {
		p.errs.Add(1)
		p.cfg.Track.Instant("state.spill_error", 0, uint64(count))
		return
	}
	g, err := openSegment(path)
	if err != nil {
		os.Remove(path)
		p.errs.Add(1)
		p.cfg.Track.Instant("state.spill_error", 0, uint64(count))
		return
	}
	// Retire the flushed heap buffers (their bytes now live in the
	// segment): pinned while captures reference them, scribbled in poison
	// mode once none do — same aliasing rule as an overwrite.
	for _, k := range live {
		s.retireBuffer(s.m[k])
	}
	p.segs = append([]*segment{g}, p.segs...)
	s.m = make(map[uint64][]byte)
	p.tomb = make(map[uint64]struct{})
	p.overlayBytes = 0
	s.sorted = nil
	s.added = s.added[:0]
	if len(s.dead) > 0 {
		s.dead = make(map[uint64]struct{})
	}
	p.spills.Add(1)
	p.cfg.Track.Span("state.spill", p.fileSeq, uint64(g.segSize()), ts)
	p.maybeStartCompaction()
}

// --- reads through the layers ---------------------------------------------

// spillGet resolves a key that missed the overlay: tombstone, then
// segments newest-first.
func (s *Store) spillGet(key uint64) ([]byte, bool) {
	p := s.sp
	if _, dead := p.tomb[key]; dead {
		return nil, false
	}
	for _, g := range p.segs {
		if v, tomb, ok := g.get(key); ok {
			if tomb {
				return nil, false
			}
			return v, true
		}
	}
	return nil, false
}

// segLookup reports the logical segment-level view of key (ignoring the
// overlay and its tombstones): (value, true) for a live entry, (nil,
// false) when absent or tombstoned in the newest covering layer.
func (p *spill) segLookup(key uint64) ([]byte, bool) {
	for _, g := range p.segs {
		if v, tomb, ok := g.get(key); ok {
			if tomb {
				return nil, false
			}
			return v, true
		}
	}
	return nil, false
}

// pinSegs snapshots the layer list with one reference per segment; the
// caller owns the references.
func (p *spill) pinSegs() []*segment {
	if len(p.segs) == 0 {
		return nil
	}
	segs := make([]*segment, len(p.segs))
	copy(segs, p.segs)
	for _, g := range segs {
		g.acquire()
	}
	return segs
}

// overlayIter iterates the overlay (live entries and tombstones) in
// ascending key order. live/tombs are disjoint sorted key sets; values
// are looked up at visit time, so a same-goroutine delete of a
// not-yet-visited key during Range is tolerated (the key is skipped).
type overlayIter struct {
	s     *Store
	live  []uint64
	tombs []uint64
	i, j  int
}

func (it *overlayIter) next() (uint64, []byte, bool, bool) {
	for {
		switch {
		case it.i < len(it.live) && (it.j >= len(it.tombs) || it.live[it.i] < it.tombs[it.j]):
			k := it.live[it.i]
			it.i++
			if v, ok := it.s.m[k]; ok {
				return k, v[:len(v):len(v)], false, true
			}
		case it.j < len(it.tombs):
			k := it.tombs[it.j]
			it.j++
			return k, nil, true, true
		default:
			return 0, nil, false, false
		}
	}
}

// kvIter yields (key, value, tombstone) triples in strictly ascending key
// order until ok=false.
type kvIter interface {
	next() (key uint64, v []byte, tombstone, ok bool)
}

// mergeIters runs the two-pointer (k-way, newest-source-wins) merge over
// sources ordered newest first: for each distinct key, the newest source
// holding it decides the outcome and every older occurrence is skipped.
// Tombstones are yielded (the caller drops or keeps them by level).
func mergeIters(its []kvIter, yield func(key uint64, v []byte, tombstone bool) bool) {
	type head struct {
		k    uint64
		v    []byte
		tomb bool
		ok   bool
	}
	heads := make([]head, len(its))
	for i, it := range its {
		heads[i].k, heads[i].v, heads[i].tomb, heads[i].ok = it.next()
	}
	for {
		best := -1
		for i := range heads {
			if heads[i].ok && (best < 0 || heads[i].k < heads[best].k) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		k := heads[best].k
		if !yield(k, heads[best].v, heads[best].tomb) {
			return
		}
		for i := range heads {
			for heads[i].ok && heads[i].k == k {
				heads[i].k, heads[i].v, heads[i].tomb, heads[i].ok = its[i].next()
			}
		}
	}
}

// mergedIters builds the newest-first source list for the live store:
// overlay, then segments.
func (s *Store) mergedIters() []kvIter {
	p := s.sp
	tombs := make([]uint64, 0, len(p.tomb))
	for k := range p.tomb {
		tombs = append(tombs, k)
	}
	sort.Slice(tombs, func(i, j int) bool { return tombs[i] < tombs[j] })
	its := make([]kvIter, 0, 1+len(p.segs))
	its = append(its, &overlayIter{s: s, live: s.index(), tombs: tombs})
	for _, g := range p.segs {
		its = append(its, &segIter{g: g})
	}
	return its
}

// rangeMerged iterates the live logical contents (tombstones suppressed)
// in ascending key order.
func (s *Store) rangeMerged(fn func(key uint64, value []byte) bool) {
	mergeIters(s.mergedIters(), func(k uint64, v []byte, tomb bool) bool {
		if tomb {
			return true
		}
		return fn(k, v)
	})
}

// --- capture materialization ----------------------------------------------

// pairIter walks a capture's (sorted) gathered pairs in key order.
type pairIter struct {
	c *Capture
	i int
}

func (it *pairIter) next() (uint64, []byte, bool, bool) {
	c := it.c
	if it.i >= len(c.keys) {
		return 0, nil, false, false
	}
	i := it.i
	it.i++
	return c.keys[i], c.vals[i], !c.live[i], true
}

// materializeSpill emits the capture as a segment image. A delta capture
// becomes a delta layer (exactly the dirty set, tombstones included); a
// full capture k-way-merges its frozen overlay pairs over the pinned
// segment layers into one self-contained, tombstone-free full layer. Both
// run on the materializing goroutine; the merge passes re-read only
// immutable pinned data.
func (c *Capture) materializeSpill(enc *wire.Encoder) {
	sort.Sort((*capturePairs)(c))
	if !c.full {
		var dataLen int64
		for i, v := range c.vals {
			if c.live[i] {
				dataLen += int64(len(v))
			}
		}
		appendSegmentTo(enc, 0, c.seq, len(c.keys), dataLen, func(yield func(uint64, []byte, bool) bool) {
			for i, k := range c.keys {
				var v []byte
				if c.live[i] {
					v = c.vals[i]
				}
				if !yield(k, v, !c.live[i]) {
					return
				}
			}
		})
		return
	}
	newIters := func() []kvIter {
		its := make([]kvIter, 0, 1+len(c.segs))
		its = append(its, &pairIter{c: c})
		for _, g := range c.segs {
			its = append(its, &segIter{g: g})
		}
		return its
	}
	var (
		count   int
		dataLen int64
	)
	mergeIters(newIters(), func(_ uint64, v []byte, tomb bool) bool {
		if !tomb {
			count++
			dataLen += int64(len(v))
		}
		return true
	})
	appendSegmentTo(enc, segFlagFull, c.seq, count, dataLen, func(yield func(uint64, []byte, bool) bool) {
		mergeIters(newIters(), func(k uint64, v []byte, tomb bool) bool {
			if tomb {
				return true
			}
			return yield(k, v, false)
		})
	})
}

// --- restore --------------------------------------------------------------

// installSegmentBlob persists one segment-format checkpoint blob as a
// segment file and maps it as the new top layer: the zero-copy restore
// path (header+index validation only, no per-entry decode).
func (s *Store) installSegmentBlob(blob []byte) error {
	p := s.sp
	p.fileSeq++
	path := filepath.Join(p.cfg.Dir, fmt.Sprintf("seg-%08d.ckseg", p.fileSeq))
	f, err := os.CreateTemp(p.cfg.Dir, "seg-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(blob); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncSegDir(p.cfg.Dir); err != nil {
		os.Remove(path)
		return err
	}
	g, err := openSegment(path)
	if err != nil {
		os.Remove(path)
		return err
	}
	p.segs = append([]*segment{g}, p.segs...)
	return nil
}

// spillRebuild replaces the contents of a spilling store with a
// base-plus-deltas blob sequence. Segment-format blobs are installed as
// mmap'd layers (the zero-copy path); wire-format blobs — produced by
// sync-snapshot or resident-mode runs — are decoded into the overlay, and
// the overlay is flushed before a later segment blob stacks on top so
// layer order (newest shadows oldest) is preserved.
func (s *Store) spillRebuild(blobs [][]byte) error {
	p := s.sp
	s.spillReset()
	for i, blob := range blobs {
		if isSegmentBlob(blob) {
			full, seq, err := segmentBlobHeader(blob)
			if err != nil {
				return fmt.Errorf("statestore: rebuild blob %d: %w", i, err)
			}
			if i == 0 {
				if !full {
					return fmt.Errorf("statestore: rebuild base is a delta layer")
				}
			} else {
				if full {
					return fmt.Errorf("statestore: rebuild blob %d: unexpected full layer mid-chain", i)
				}
				if seq != s.seq+1 {
					return fmt.Errorf("statestore: rebuild blob %d: seq %d applied at seq %d", i, seq, s.seq)
				}
				s.spillFlush() // keep layer order if wire deltas landed in the overlay
			}
			if err := s.installSegmentBlob(blob); err != nil {
				return fmt.Errorf("statestore: rebuild blob %d: %w", i, err)
			}
			s.seq = seq
		} else if i == 0 {
			if err := s.Restore(wire.NewDecoder(blob)); err != nil {
				return fmt.Errorf("statestore: rebuild base: %w", err)
			}
		} else {
			if err := s.ApplyDelta(wire.NewDecoder(blob)); err != nil {
				return fmt.Errorf("statestore: rebuild delta %d: %w", i, err)
			}
		}
	}
	// Recompute the logical entry/byte counters with one index-only merge
	// pass over the installed layers — no value bytes are touched, which
	// is what keeps mmap restore cheap relative to a full decode.
	s.count, s.bytes = 0, 0
	s.rangeMerged(func(_ uint64, v []byte) bool {
		s.count++
		s.bytes += len(v)
		return true
	})
	s.clearDirty()
	p.updateGauges(s)
	p.maybeStartCompaction()
	return nil
}

// spillRestoreWire loads a wire-format full snapshot (header already
// consumed) into a spilling store: entries stream into the overlay and
// spill to segment layers as the resident budget fills, so restoring
// state larger than memory stays bounded.
func (s *Store) spillRestoreWire(dec *wire.Decoder, seq uint64, n int) error {
	p := s.sp
	s.spillReset()
	for i := 0; i < n; i++ {
		k := dec.Uvarint()
		v := dec.Bytes()
		if dec.Err() != nil {
			return dec.Err()
		}
		cp := s.restoredValue(v)
		s.m[k] = cp
		s.added = append(s.added, k)
		s.count++
		s.bytes += len(cp)
		p.overlayBytes += len(cp)
		if s.residentBytes(p) > p.cfg.MaxResidentBytes || len(s.m) > p.cfg.MaxOverlayEntries {
			s.spillFlush()
		}
	}
	s.seq = seq
	s.clearDirty()
	p.updateGauges(s)
	p.maybeStartCompaction()
	return nil
}

// spillReset drops all layers and overlay state (keeping seq).
func (s *Store) spillReset() {
	p := s.sp
	for _, g := range p.segs {
		g.release()
	}
	p.segs = nil
	p.tomb = make(map[uint64]struct{})
	p.overlayBytes = 0
	s.m = make(map[uint64][]byte)
	s.count = 0
	s.bytes = 0
	s.sorted = nil
	s.added = s.added[:0]
	s.dead = make(map[uint64]struct{})
	s.clearDirty()
}

// --- compaction -----------------------------------------------------------

// maybeStartCompaction hands a pinned snapshot of the layer list to the
// background merger once the list is long enough. One merge in flight.
func (p *spill) maybeStartCompaction() {
	if p.inFlight || p.closed || len(p.segs) < compactMinSegments {
		return
	}
	snap := p.pinSegs()
	p.compactSrc = p.segs // by construction snap aliases the same segments
	p.inFlight = true
	p.compactCh <- snap
}

// applyCompaction swaps a finished merge into the layer list: the merged
// segment replaces the (still-suffix) snapshot it covered, and the
// replaced layers lose their store reference. Runs on the owner goroutine.
func (p *spill) applyCompaction() {
	if !p.inFlight {
		return
	}
	select {
	case res := <-p.resultCh:
		p.inFlight = false
		src := p.compactSrc
		p.compactSrc = nil
		if res.err != nil {
			p.errs.Add(1)
			return
		}
		// Only flushes prepend to the list, so the compacted snapshot is
		// still its suffix.
		keep := len(p.segs) - len(src)
		segs := make([]*segment, 0, keep+1)
		segs = append(segs, p.segs[:keep]...)
		segs = append(segs, res.out)
		for _, g := range p.segs[keep:] {
			g.release()
		}
		p.segs = segs
		p.compacts.Add(1)
		p.cfg.Track.Instant("state.compact_swap", 0, uint64(res.out.segSize()))
	default:
	}
}

// runCompactor is the background merge goroutine: one bounded worker per
// store, mirroring the uploader-pool shape — work arrives on a channel,
// results post back, the owner applies them at its own pace.
func (p *spill) runCompactor() {
	defer p.wg.Done()
	for snap := range p.compactCh {
		out, err := p.compact(snap)
		for _, g := range snap {
			g.release()
		}
		p.resultCh <- compactResult{out: out, err: err}
	}
}

// compact merges a layer-list snapshot (newest first) into one segment
// file. The merge always covers down to the snapshot's bottom layer, so
// tombstones are dropped: anything they shadowed is gone from the output.
func (p *spill) compact(snap []*segment) (*segment, error) {
	ts := p.cfg.CompactTrack.Begin()
	newIters := func() []kvIter {
		its := make([]kvIter, len(snap))
		for i, g := range snap {
			its[i] = &segIter{g: g}
		}
		return its
	}
	var (
		count   int
		dataLen int64
		inBytes int64
	)
	for _, g := range snap {
		inBytes += g.segSize()
	}
	mergeIters(newIters(), func(_ uint64, v []byte, tomb bool) bool {
		if !tomb {
			count++
			dataLen += int64(len(v))
		}
		return true
	})
	emit := func(yield func(k uint64, v []byte, tomb bool) bool) {
		mergeIters(newIters(), func(k uint64, v []byte, tomb bool) bool {
			if tomb {
				return true
			}
			return yield(k, v, false)
		})
	}
	seq := snap[0].seq
	name := fmt.Sprintf("merged-%08d.ckseg", atomic.AddUint64(&compactNameSeq, 1))
	path, err := writeSegmentFile(p.cfg.Dir, name, segFlagFull, seq, count, dataLen, emit)
	if err != nil {
		return nil, err
	}
	g, err := openSegment(path)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	p.cfg.CompactTrack.Span("state.compact", uint64(len(snap)), uint64(inBytes), ts)
	return g, nil
}

// compactNameSeq keeps merged-segment file names unique across stores
// sharing a directory generation.
var compactNameSeq uint64
