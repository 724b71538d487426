package statestore

import (
	"fmt"

	"checkmate/internal/wire"
)

// ChainPolicy decides when a chain takes a full snapshot instead of a delta.
type ChainPolicy struct {
	// MaxDeltas forces a full snapshot after this many consecutive deltas.
	// Zero means every snapshot is full.
	MaxDeltas int
	// MaxDeltaFraction forces a full snapshot once the accumulated delta
	// bytes since the last base exceed this fraction of the base snapshot
	// size (e.g. 0.5). Zero disables the byte heuristic.
	MaxDeltaFraction float64
}

// DefaultChainPolicy compacts after 8 deltas or once deltas reach half the
// base size, whichever comes first.
func DefaultChainPolicy() ChainPolicy {
	return ChainPolicy{MaxDeltas: 8, MaxDeltaFraction: 0.5}
}

// Chain manages the base-plus-deltas checkpoint sequence of one store: it
// chooses full vs delta per snapshot according to a policy and (unless
// streaming) retains the blob sequence needed to rebuild the newest state.
//
// A Chain corresponds to what an incremental state backend (e.g. a
// RocksDB-style backend) persists per checkpoint; Rebuild is the recovery
// path.
type Chain struct {
	policy ChainPolicy
	// blobs holds the newest base followed by its deltas, oldest first.
	// Empty in streaming mode.
	blobs [][]byte
	// n counts the blobs in the chain (1 base + deltas); maintained even
	// when blobs are not retained.
	n          int
	retain     bool
	deltaBytes int
	baseBytes  int
}

// NewChain returns an empty chain with the given policy that retains every
// blob, so the newest state can be rebuilt from Blobs.
func NewChain(policy ChainPolicy) *Chain {
	return &Chain{policy: policy, retain: true}
}

// NewStreamingChain returns an empty chain that applies the compaction
// policy but does not retain blob contents — for callers that persist the
// blobs elsewhere (e.g. an object store) and recover via RebuildInto.
// Memory use then stays bounded by policy bookkeeping instead of growing
// with the state size.
func NewStreamingChain(policy ChainPolicy) *Chain {
	return &Chain{policy: policy}
}

// Checkpoint snapshots s (full or delta per the policy), appends the blob to
// the chain, and returns the blob together with whether it was a full
// snapshot. The returned blob is owned by the chain.
func (c *Chain) Checkpoint(s *Store) (blob []byte, full bool) {
	full = c.shouldFull(s)
	enc := wire.NewEncoder(make([]byte, 0, 1024))
	if full {
		s.SnapshotFull(enc)
		c.blobs = c.blobs[:0]
		c.n = 0
		c.baseBytes = enc.Len()
		c.deltaBytes = 0
	} else {
		s.SnapshotDelta(enc)
		c.deltaBytes += enc.Len()
	}
	b := append([]byte(nil), enc.Bytes()...)
	if c.retain {
		c.blobs = append(c.blobs, b)
	}
	c.n++
	return b, full
}

// CaptureCheckpoint freezes the next snapshot of the chain as a
// copy-on-write view (full or delta per the policy) without serializing it:
// the caller materializes the returned capture off-thread and must Release
// it when done. Only streaming chains support captures — a retaining chain
// needs the materialized blob, which does not exist yet at capture time.
//
// Policy bookkeeping uses the capture's estimated size instead of the exact
// blob length (which is only known after materialization); the estimate is
// within a few bytes per entry, so compaction points may shift by at most
// one checkpoint relative to the synchronous path.
func (c *Chain) CaptureCheckpoint(s *Store) (cap *Capture, full bool) {
	if c.retain {
		panic("statestore: CaptureCheckpoint on a retaining chain (use NewStreamingChain)")
	}
	full = c.shouldFull(s)
	if full {
		cap = s.CaptureFull()
		c.n = 0
		c.baseBytes = cap.EstimatedBytes()
		c.deltaBytes = 0
	} else {
		cap = s.CaptureDelta()
		c.deltaBytes += cap.EstimatedBytes()
	}
	c.n++
	return cap, full
}

// Reset empties the chain so the next Checkpoint takes a full snapshot.
// Use after a chain blob failed to persist: deltas on top of a lost base
// could never be rebuilt.
func (c *Chain) Reset() {
	c.blobs = c.blobs[:0]
	c.n = 0
	c.baseBytes = 0
	c.deltaBytes = 0
}

func (c *Chain) shouldFull(s *Store) bool {
	if c.n == 0 {
		return true
	}
	deltas := c.n - 1
	if c.policy.MaxDeltas <= 0 || deltas >= c.policy.MaxDeltas {
		return true
	}
	if c.policy.MaxDeltaFraction > 0 && c.baseBytes > 0 {
		if float64(c.deltaBytes) > c.policy.MaxDeltaFraction*float64(c.baseBytes) {
			return true
		}
	}
	return false
}

// Blobs returns the current base-plus-deltas sequence, oldest first. The
// returned slice and its blobs are owned by the chain. Nil for streaming
// chains, which do not retain blobs.
func (c *Chain) Blobs() [][]byte { return c.blobs }

// Len reports the number of blobs in the chain (1 base + N deltas).
func (c *Chain) Len() int { return c.n }

// TotalBytes reports the summed size of all blobs currently retained.
func (c *Chain) TotalBytes() int {
	n := 0
	for _, b := range c.blobs {
		n += len(b)
	}
	return n
}

// Rebuild reconstructs a store from a base-plus-deltas blob sequence (oldest
// first), as produced by Checkpoint.
func Rebuild(blobs [][]byte) (*Store, error) {
	s := New()
	if err := RebuildInto(s, blobs); err != nil {
		return nil, err
	}
	return s, nil
}

// RebuildInto replaces the contents of s with the state encoded by a
// base-plus-deltas blob sequence (oldest first). The first blob must be a
// full snapshot and every subsequent blob a delta whose sequence number
// directly follows its predecessor's; a missing, duplicated or reordered
// delta fails the rebuild.
//
// Blobs may be wire-format snapshots or spill-mode segment images, in any
// combination. A spilling store installs segment blobs as mmap'd layers —
// the zero-copy restore path, O(header+index) instead of O(state) — while
// a resident store decodes them entry by entry; wire blobs take the
// classic decode path on either. Decoded values alias the blobs, as with
// Restore, so the blobs must not be modified afterwards.
func RebuildInto(s *Store, blobs [][]byte) error {
	if len(blobs) == 0 {
		return fmt.Errorf("statestore: rebuild with no blobs")
	}
	if s.sp != nil {
		return s.spillRebuild(blobs)
	}
	if err := restoreAny(s, blobs[0]); err != nil {
		return fmt.Errorf("statestore: rebuild base: %w", err)
	}
	for i, b := range blobs[1:] {
		if err := applyDeltaAny(s, b); err != nil {
			return fmt.Errorf("statestore: rebuild delta %d: %w", i+1, err)
		}
	}
	return nil
}

// restoreAny restores a full blob of either format into a resident store.
func restoreAny(s *Store, blob []byte) error {
	if !isSegmentBlob(blob) {
		return s.Restore(wire.NewDecoder(blob))
	}
	s.Clear()
	h, err := forEachSegmentEntry(blob, func(k uint64, v []byte, tomb bool) error {
		if tomb {
			return fmt.Errorf("statestore: tombstone in full segment layer (key %d)", k)
		}
		s.putOwned(k, s.restoredValue(v))
		return nil
	})
	if err != nil {
		return err
	}
	if h.flags&segFlagFull == 0 {
		return fmt.Errorf("statestore: restore from a delta segment layer")
	}
	s.seq = h.seq
	s.clearDirty()
	return nil
}

// applyDeltaAny layers a delta blob of either format onto a resident store.
func applyDeltaAny(s *Store, blob []byte) error {
	if !isSegmentBlob(blob) {
		return s.ApplyDelta(wire.NewDecoder(blob))
	}
	full, seq, err := segmentBlobHeader(blob)
	if err != nil {
		return err
	}
	if full {
		return fmt.Errorf("statestore: apply-delta on a full segment layer")
	}
	if seq != s.seq+1 {
		return fmt.Errorf("statestore: delta seq %d applied to store at seq %d", seq, s.seq)
	}
	if _, err := forEachSegmentEntry(blob, func(k uint64, v []byte, tomb bool) error {
		if tomb {
			s.Delete(k)
		} else {
			s.putOwned(k, s.restoredValue(v))
		}
		return nil
	}); err != nil {
		return err
	}
	s.seq = seq
	s.clearDirty()
	return nil
}
