package statestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"checkmate/internal/wire"
)

// appendViaPut is Append's reference semantics: read, extend a copy, Put.
func appendViaPut(s *Store, key uint64, suffix []byte) {
	old, _ := s.Get(key)
	s.Put(key, append(append([]byte(nil), old...), suffix...))
}

// valueAddr reports the address of key's first value byte, so a test can
// tell an in-place Append from a move to a new buffer.
func valueAddr(s *Store, key uint64) *byte {
	v, _ := s.Get(key)
	return &v[0]
}

// TestAppendCaptureSeesPreAppendBytes takes full and delta captures, then
// appends in place to a captured value, and requires each capture to
// materialize exactly the bytes a synchronous snapshot of a Put-built twin
// produced at the capture instant.
func TestAppendCaptureSeesPreAppendBytes(t *testing.T) {
	for _, full := range []bool{true, false} {
		t.Run(fmt.Sprintf("full=%v", full), func(t *testing.T) {
			s, twin := New(), New()
			for _, st := range []*Store{s, twin} {
				st.Put(2, []byte("other"))
			}
			s.Append(1, []byte("abc"))
			appendViaPut(twin, 1, []byte("abc"))
			var c *Capture
			want := wire.NewEncoder(nil)
			if full {
				c = s.CaptureFull()
				twin.SnapshotFull(want)
			} else {
				c = s.CaptureDelta()
				twin.SnapshotDelta(want)
			}
			before := valueAddr(s, 1)
			s.Append(1, []byte("de")) // fits the spare capacity
			if valueAddr(s, 1) != before {
				t.Fatal("Append within capacity moved the value; the test no longer covers in-place growth")
			}
			got := wire.NewEncoder(nil)
			c.MaterializeTo(got)
			c.Release()
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("capture materialized % x, want % x", got.Bytes(), want.Bytes())
			}
			if v, _ := s.Get(1); string(v) != "abcde" {
				t.Fatalf("live value %q, want %q", v, "abcde")
			}
		})
	}
}

// TestAppendConcurrentMaterialize materializes captures on another
// goroutine while the owner keeps appending to the captured values, in
// place and with growth. Each capture must match the synchronous snapshot
// of a twin store; under -race it also proves the in-place writes never
// touch bytes a capture reads.
func TestAppendConcurrentMaterialize(t *testing.T) {
	s, twin := New(), New()
	type job struct {
		c    *Capture
		want []byte
	}
	jobs := make(chan job, 4)
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := range jobs {
			enc := wire.NewEncoder(nil)
			j.c.MaterializeTo(enc)
			j.c.Release()
			if !bytes.Equal(enc.Bytes(), j.want) && len(errs) == 0 {
				errs <- fmt.Errorf("capture seq %d: materialized %d bytes differ from the synchronous snapshot (%d bytes)", j.c.Seq(), enc.Len(), len(j.want))
			}
		}
	}()
	rng := rand.New(rand.NewSource(3))
	var suffix [3]byte
	for round := 0; round < 200; round++ {
		for i := 0; i < 20; i++ {
			k := uint64(rng.Intn(8))
			rng.Read(suffix[:])
			n := 1 + rng.Intn(len(suffix))
			s.Append(k, suffix[:n])
			appendViaPut(twin, k, suffix[:n])
		}
		enc := wire.NewEncoder(nil)
		var c *Capture
		if round%10 == 0 {
			c = s.CaptureFull()
			twin.SnapshotFull(enc)
		} else {
			c = s.CaptureDelta()
			twin.SnapshotDelta(enc)
		}
		jobs <- job{c: c, want: enc.Bytes()}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	requireEqualStores(t, twin, s, "after concurrent appends")
}

// TestAppendPoisonWithLiveCapture runs Append in poison mode: a buffer
// that growth retires stays intact while a capture pins it and reads 0xDB
// once the capture is released; an in-place Append never scribbles the
// prefix a retained slice still reads.
func TestAppendPoisonWithLiveCapture(t *testing.T) {
	s := New()
	s.SetPoison(true)
	s.Append(1, []byte{1, 2, 3, 4})
	retained, _ := s.Get(1)
	s.Append(1, []byte{5}) // in place (capacity 8)
	if !bytes.Equal(retained, []byte{1, 2, 3, 4}) {
		t.Fatalf("in-place Append changed the retained prefix: % x", retained)
	}

	c := s.CaptureFull()
	pinned, _ := s.Get(1)
	s.Append(1, []byte{6, 7, 8, 9}) // 9 bytes > capacity 8: moves and retires
	if !bytes.Equal(pinned, []byte{1, 2, 3, 4, 5}) {
		t.Fatalf("capture-pinned buffer was scribbled: % x", pinned)
	}
	enc := wire.NewEncoder(nil)
	c.MaterializeTo(enc)
	c.Release()
	restored := New()
	if err := restored.Restore(wire.NewDecoder(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if v, _ := restored.Get(1); !bytes.Equal(v, []byte{1, 2, 3, 4, 5}) {
		t.Fatalf("capture materialized % x, want the pre-growth value", v)
	}

	s.Append(2, []byte{0}) // next mutation drains the deferred buffers
	for _, b := range pinned {
		if b != 0xDB {
			t.Fatalf("retired buffer not poisoned after the capture released: % x", pinned)
		}
	}
	if v, _ := s.Get(1); !bytes.Equal(v, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("live value % x", v)
	}
}

// TestAppendNeverExtendsForeignCapacity stores subslices whose capacity
// reaches into other buffers — a PutOwned of part of a larger array, and
// a caller's append to a Get result — and requires later Appends to leave
// those neighbouring bytes alone.
func TestAppendNeverExtendsForeignCapacity(t *testing.T) {
	s := New()
	backing := make([]byte, 8, 64)
	copy(backing, "aaaabbbb")
	s.PutOwned(1, backing[:4]) // capacity reaches over "bbbb" and beyond
	s.Append(1, []byte("XXXX"))
	if string(backing) != "aaaabbbb" {
		t.Fatalf("Append wrote into the PutOwned buffer's capacity: %q", backing)
	}
	if v, _ := s.Get(1); string(v) != "aaaaXXXX" {
		t.Fatalf("key 1 = %q", v)
	}

	v, _ := s.Get(1)
	if cap(v) != len(v) {
		t.Fatalf("Get returned cap %d > len %d", cap(v), len(v))
	}
	s.Range(func(_ uint64, rv []byte) bool {
		if cap(rv) != len(rv) {
			t.Fatalf("Range passed cap %d > len %d", cap(rv), len(rv))
		}
		return true
	})
	s.PutOwned(2, append(v, "-two"...)) // must copy, not extend key 1's buffer
	s.Append(1, []byte("YY"))
	if got, _ := s.Get(2); string(got) != "aaaaXXXX-two" {
		t.Fatalf("key 2 = %q after appending to key 1", got)
	}
	if got, _ := s.Get(1); string(got) != "aaaaXXXXYY" {
		t.Fatalf("key 1 = %q", got)
	}
}

// TestAppendToSegmentKeyLeavesMappedBytes appends to keys that live only
// in an mmap'd segment: the value is copied out into the overlay, the
// mapped bytes stay as they were, and Len/Bytes match a resident twin.
func TestAppendToSegmentKeyLeavesMappedBytes(t *testing.T) {
	s := newSpillStore(t, 1<<20, 4) // flush once the overlay passes 4 entries
	twin := New()
	for k := uint64(0); k < 5; k++ {
		v := []byte(fmt.Sprintf("seg-%d", k))
		s.Put(k, v)
		twin.Put(k, v)
	}
	if st := s.SpillStats(); st.Segments != 1 || len(s.m) != 0 {
		t.Fatalf("want every key in one segment and an empty overlay, got %+v with %d overlay keys", st, len(s.m))
	}
	mapped, _ := s.Get(2)
	if !s.inMmap(mapped) {
		t.Fatal("key 2 is not served from the mapped segment")
	}
	orig := append([]byte(nil), mapped...)

	s.Append(2, []byte("+tail"))
	appendViaPut(twin, 2, []byte("+tail"))
	s.Delete(3)
	twin.Delete(3)
	s.Append(3, []byte("reborn")) // over a tombstone
	appendViaPut(twin, 3, []byte("reborn"))

	if !bytes.Equal(mapped, orig) {
		t.Fatalf("mapped bytes changed: %q, want %q", mapped, orig)
	}
	if v, _ := s.Get(2); string(v) != "seg-2+tail" || s.inMmap(v) {
		t.Fatalf("key 2 = %q (mapped=%v), want an overlay copy %q", v, s.inMmap(v), "seg-2+tail")
	}
	s.Append(2, []byte("!")) // now an overlay value: grows in place
	appendViaPut(twin, 2, []byte("!"))
	requireEqualStores(t, twin, s, "after appends over a segment")
	if s.DirtyCount() != twin.DirtyCount() {
		t.Fatalf("dirty keys %d, want %d", s.DirtyCount(), twin.DirtyCount())
	}
}

// TestAppendSnapshotsMatchPut drives the same random Append/Put/Delete
// stream into a store using Append and into one emulating it with Put,
// on the resident and the spilling backend. Full snapshots must restore,
// and delta chains apply, to the same contents, and on the resident
// backend the snapshot bytes must be identical.
func TestAppendSnapshotsMatchPut(t *testing.T) {
	for _, spilling := range []bool{false, true} {
		t.Run(fmt.Sprintf("spill=%v", spilling), func(t *testing.T) {
			s := New()
			if spilling {
				s = newSpillStore(t, 256, 16)
			}
			model := New()
			base, twinBase := wire.NewEncoder(nil), wire.NewEncoder(nil)
			s.SnapshotFull(base)
			model.SnapshotFull(twinBase)
			rebuilt := New()
			if err := rebuilt.Restore(wire.NewDecoder(base.Bytes())); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			for round := 0; round < 30; round++ {
				for i := 0; i < 50; i++ {
					k := uint64(rng.Intn(40))
					switch rng.Intn(10) {
					case 0:
						s.Delete(k)
						model.Delete(k)
					case 1:
						v := []byte(fmt.Sprintf("put-%d", i))
						s.Put(k, v)
						model.Put(k, v)
					default:
						suffix := make([]byte, 1+rng.Intn(5))
						rng.Read(suffix)
						s.Append(k, suffix)
						appendViaPut(model, k, suffix)
					}
				}
				delta, twinDelta := wire.NewEncoder(nil), wire.NewEncoder(nil)
				s.SnapshotDelta(delta)
				model.SnapshotDelta(twinDelta)
				if !spilling && !bytes.Equal(delta.Bytes(), twinDelta.Bytes()) {
					t.Fatalf("round %d: delta snapshot differs from the Put-built store's", round)
				}
				if err := rebuilt.ApplyDelta(wire.NewDecoder(delta.Bytes())); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				requireEqualStores(t, model, rebuilt, fmt.Sprintf("delta chain, round %d", round))
			}
			requireEqualStores(t, model, s, "live store")
			full, twinFull := wire.NewEncoder(nil), wire.NewEncoder(nil)
			s.SnapshotFull(full)
			model.SnapshotFull(twinFull)
			if !bytes.Equal(full.Bytes(), twinFull.Bytes()) {
				t.Fatal("full snapshot differs from the Put-built store's")
			}
			restored := New()
			if err := restored.Restore(wire.NewDecoder(full.Bytes())); err != nil {
				t.Fatal(err)
			}
			requireEqualStores(t, model, restored, "full restore")
			// A restored store keeps appending like any other.
			restored.Append(1, []byte("after-restore"))
			appendViaPut(model, 1, []byte("after-restore"))
			requireEqualStores(t, model, restored, "append after restore")
		})
	}
}

// TestRestoreAliasesSnapshotReadOnly restores a full snapshot and a delta
// — values alias the snapshot bytes — then appends to, overwrites and
// deletes the restored keys with poison on and off. The snapshot bytes
// must come through untouched: restored values are capped, so Append
// copies them out, and poison-mode restores copy instead of aliasing.
func TestRestoreAliasesSnapshotReadOnly(t *testing.T) {
	for _, poison := range []bool{false, true} {
		t.Run(fmt.Sprintf("poison=%v", poison), func(t *testing.T) {
			src := New()
			for k := uint64(0); k < 6; k++ {
				src.Put(k, []byte(fmt.Sprintf("value-%d", k)))
			}
			full := wire.NewEncoder(nil)
			src.SnapshotFull(full)
			src.Put(6, []byte("new"))
			src.Append(1, []byte("+d"))
			delta := wire.NewEncoder(nil)
			src.SnapshotDelta(delta)
			fullCopy := append([]byte(nil), full.Bytes()...)
			deltaCopy := append([]byte(nil), delta.Bytes()...)

			s := New()
			s.SetPoison(poison)
			if err := s.Restore(wire.NewDecoder(full.Bytes())); err != nil {
				t.Fatal(err)
			}
			if err := s.ApplyDelta(wire.NewDecoder(delta.Bytes())); err != nil {
				t.Fatal(err)
			}
			requireEqualStores(t, src, s, "restored")
			s.Range(func(_ uint64, v []byte) bool {
				if cap(v) != len(v) {
					t.Fatalf("restored value has cap %d > len %d", cap(v), len(v))
				}
				return true
			})
			for k := uint64(0); k < 7; k++ {
				s.Append(k, []byte("XYZ"))
			}
			s.Put(2, []byte("overwritten"))
			s.Delete(3)
			if !bytes.Equal(full.Bytes(), fullCopy) || !bytes.Equal(delta.Bytes(), deltaCopy) {
				t.Fatal("the store wrote into the snapshot bytes it restored from")
			}
			if v, _ := s.Get(1); string(v) != "value-1+dXYZ" {
				t.Fatalf("key 1 = %q", v)
			}
		})
	}
}
