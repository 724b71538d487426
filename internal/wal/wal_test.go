package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, opts Options) (*WAL, []Record) {
	t.Helper()
	w, recs, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return w, recs
}

func payload(i int) []byte { return []byte(fmt.Sprintf("payload-%04d", i)) }

func TestAppendRecoverRoundTrip(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncGroup, SyncInterval} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			w, recs := openT(t, dir, Options{Policy: policy})
			if len(recs) != 0 {
				t.Fatalf("fresh dir recovered %d records", len(recs))
			}
			const n = 50
			for i := 0; i < n; i++ {
				r := Record{Type: RecAppend, Ch: uint64(i % 3), Seq: uint64(i*10 + 1), Count: 10, Data: payload(i)}
				if err := w.Append(r); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
			// Under interval nobody demands the fsync: the tick provides it.
			if err := w.WaitSynced(w.LastLSN()); err != nil {
				t.Fatalf("WaitSynced: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			w2, got := openT(t, dir, Options{Policy: policy})
			defer w2.Close()
			if len(got) != n {
				t.Fatalf("recovered %d records, want %d", len(got), n)
			}
			for i, r := range got {
				if r.Type != RecAppend || r.Ch != uint64(i%3) || r.Seq != uint64(i*10+1) || r.Count != 10 {
					t.Fatalf("record %d mismatch: %+v", i, r)
				}
				if !bytes.Equal(r.Data, payload(i)) {
					t.Fatalf("record %d data mismatch: %q", i, r.Data)
				}
			}
		})
	}
}

func TestControlRecordsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{Policy: SyncAlways})
	if err := w.Append(Record{Type: RecAppend, Ch: 7, Seq: 1, Count: 5, Data: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Trim(7, 3); err != nil {
		t.Fatal(err)
	}
	if err := w.TrimSuffix(7, 4); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, recs := openT(t, dir, Options{})
	defer w2.Close()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	if recs[1].Type != RecTrim || recs[1].Ch != 7 || recs[1].Seq != 3 {
		t.Fatalf("trim record mismatch: %+v", recs[1])
	}
	if recs[2].Type != RecTrimSuffix || recs[2].Seq != 4 {
		t.Fatalf("trim-suffix record mismatch: %+v", recs[2])
	}
}

func TestSegmentRotationAndTrimDeletion(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so every few appends rotate.
	w, _ := openT(t, dir, Options{Policy: SyncAlways, MaxSegmentSize: 128})
	data := bytes.Repeat([]byte("x"), 40)
	const n = 20
	for i := 0; i < n; i++ {
		if err := w.Append(Record{Type: RecAppend, Ch: 1, Seq: uint64(i + 1), Count: 1, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Segments(); got < 5 {
		t.Fatalf("expected several segments after %d oversized appends, got %d", n, got)
	}
	// Trim everything: all sealed segments must be deleted.
	if err := w.Trim(1, uint64(n)); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.SegmentsDeleted == 0 {
		t.Fatalf("trim deleted no segments: %+v", st)
	}
	if got := w.Segments(); got > 2 {
		t.Fatalf("expected at most active+current sealed segment after full trim, got %d", got)
	}
	w.Close()

	// Recovery after trim must not resurrect trimmed records below the
	// frontier in deleted segments.
	w2, recs := openT(t, dir, Options{})
	defer w2.Close()
	for _, r := range recs {
		if r.Type == RecAppend && r.Seq+uint64(r.Count)-1 <= uint64(n-10) {
			t.Fatalf("recovered record from a segment that should be deleted: %+v", r)
		}
	}
}

func TestTrimDoesNotDeleteLiveData(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{Policy: SyncAlways, MaxSegmentSize: 64})
	// Channel 2's data interleaves with channel 1's; trimming only
	// channel 1 must keep every segment holding live channel-2 data.
	for i := 0; i < 8; i++ {
		w.Append(Record{Type: RecAppend, Ch: 1, Seq: uint64(i + 1), Count: 1, Data: payload(i)})
		w.Append(Record{Type: RecAppend, Ch: 2, Seq: uint64(i + 1), Count: 1, Data: payload(i)})
	}
	w.Trim(1, 8)
	w.Close()

	w2, recs := openT(t, dir, Options{})
	defer w2.Close()
	ch2 := 0
	for _, r := range recs {
		if r.Type == RecAppend && r.Ch == 2 {
			ch2++
		}
	}
	if ch2 != 8 {
		t.Fatalf("live channel-2 records lost by trim of channel 1: got %d, want 8", ch2)
	}
}

// TestTornTailRecovery drives seven frames through one coalesced write
// that straddles a rotation, then truncates the second segment at every
// byte offset and asserts recovery yields exactly the prefix of
// fully-committed entries — no panic, no phantom records.
func TestTornTailRecovery(t *testing.T) {
	const frames, perSeg = 7, 4
	frameLen := frameHeader + bodyFixed + len(payload(0))
	opts := Options{Policy: SyncGroup, MaxSegmentSize: int64(perSeg * frameLen)}

	ref, _ := openT(t, t.TempDir(), opts)
	var lsn uint64
	for i := 0; i < frames; i++ {
		var err error
		// Nothing wakes the committer before the barrier, so all seven
		// frames reach it in one pass.
		if lsn, err = ref.AppendAsync(Record{Type: RecAppend, Ch: 1, Seq: uint64(i + 1), Count: 1, Data: payload(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.WaitSynced(lsn); err != nil {
		t.Fatal(err)
	}
	// Open's dir sync, the seal and the new segment's dir sync, the barrier.
	if st := ref.Stats(); st.Fsyncs != 4 || st.SegmentsCreated != 2 {
		t.Fatalf("one pass across one rotation: %+v", st)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	firstPath, secondPath := ref.segs[0].path, ref.active.path
	first, err := os.ReadFile(firstPath)
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(secondPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != perSeg*frameLen || len(second) != (frames-perSeg)*frameLen {
		t.Fatalf("segment sizes %d, %d", len(first), len(second))
	}

	for cut := 0; cut <= len(second); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(firstPath)), first, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(secondPath)), second[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("cut=%d: Open failed: %v", cut, err)
		}
		wantRecs := perSeg + cut/frameLen
		if len(recs) != wantRecs {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(recs), wantRecs)
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) || !bytes.Equal(r.Data, payload(i)) {
				t.Fatalf("cut=%d: record %d corrupted: %+v", cut, i, r)
			}
		}
		// The torn WAL must remain appendable and the new record must
		// survive the next recovery alongside the committed prefix.
		if err := w.Append(Record{Type: RecAppend, Ch: 1, Seq: 99, Count: 1, Data: []byte("post-tear")}); err != nil {
			t.Fatalf("cut=%d: append after torn recovery: %v", cut, err)
		}
		w.Close()
		w2, recs2, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if len(recs2) != wantRecs+1 || recs2[wantRecs].Seq != 99 {
			t.Fatalf("cut=%d: second recovery got %d records", cut, len(recs2))
		}
		w2.Close()
	}
}

func TestCorruptMiddleFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{Policy: SyncAlways})
	for i := 0; i < 5; i++ {
		w.Append(Record{Type: RecAppend, Ch: 1, Seq: uint64(i + 1), Count: 1, Data: payload(i)})
	}
	w.Close()
	p := w.active.path

	buf, _ := os.ReadFile(p)
	// Flip a payload byte in the third frame.
	frameLen := frameHeader + bodyFixed + len(payload(0))
	buf[2*frameLen+frameHeader+bodyFixed] ^= 0xFF
	os.WriteFile(p, buf, 0o644)

	w2, recs := openT(t, dir, Options{})
	defer w2.Close()
	if len(recs) != 2 {
		t.Fatalf("replay past a corrupt frame: got %d records, want 2", len(recs))
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{Policy: SyncGroup})
	const goroutines = 8
	const perG = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r := Record{Type: RecAppend, Ch: uint64(g), Seq: uint64(i + 1), Count: 1, Data: payload(i)}
				if err := w.Append(r); err != nil {
					t.Errorf("g%d append %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if st.Appends != goroutines*perG {
		t.Fatalf("appends = %d, want %d", st.Appends, goroutines*perG)
	}
	// The whole point of group commit: far fewer fsyncs than appends.
	if st.Fsyncs >= st.Appends {
		t.Fatalf("group commit did not amortize: %d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}
	w.Close()

	_, recs := openT(t, dir, Options{})
	if len(recs) != goroutines*perG {
		t.Fatalf("recovered %d records, want %d", len(recs), goroutines*perG)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{Policy: SyncGroup})
	w.Close()
	if err := w.Append(Record{Type: RecAppend, Ch: 1, Seq: 1, Count: 1}); err != ErrClosed {
		t.Fatalf("append after close: err = %v, want ErrClosed", err)
	}
}

func TestCrashCloseKeepsCommittedPrefix(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{Policy: SyncGroup})
	for i := 0; i < 10; i++ {
		if err := w.Append(Record{Type: RecAppend, Ch: 1, Seq: uint64(i + 1), Count: 1, Data: payload(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.CrashClose()
	// Blocking appends acked all 10, so all 10 must survive the "crash":
	// the fsync happened before the ack.
	_, recs := openT(t, dir, Options{})
	if len(recs) != 10 {
		t.Fatalf("crash lost acknowledged records: recovered %d, want 10", len(recs))
	}
}

// Between barriers the group policy writes but never fsyncs: only a
// waiter, a seal or Close does.
func TestFsyncOnlyOnDemand(t *testing.T) {
	w, _ := openT(t, t.TempDir(), Options{Policy: SyncGroup})
	defer w.Close()
	data := bytes.Repeat([]byte("x"), 4500)
	var lsn uint64
	for i := 0; i < 200; i++ { // 900 KB: past the flush threshold, below one segment
		var err error
		if lsn, err = w.AppendAsync(Record{Type: RecAppend, Ch: 1, Seq: uint64(i + 1), Count: 1, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Stats().Fsyncs; got != 1 {
		t.Fatalf("%d fsyncs with nobody waiting, want only Open's dir sync", got)
	}
	if err := w.WaitSynced(lsn); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Fsyncs; got != 2 {
		t.Fatalf("%d fsyncs after one barrier, want 2", got)
	}
	if err := w.WaitSynced(lsn); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Fsyncs; got != 2 {
		t.Fatalf("a barrier with nothing new to cover fsynced again: %d", got)
	}
}

// Concurrent appenders, barriers at random, then a crash: whatever a
// returned barrier covered is recovered, and what is recovered is a
// gap-free prefix of the LSN order.
func TestCrashKeepsWhatBarriersCovered(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{Policy: SyncGroup, MaxSegmentSize: 16 << 10})
	const goroutines, perG = 4, 400
	var covered atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			data := make([]byte, 8+rng.Intn(200))
			for i := 0; i < perG; i++ {
				lsn, err := w.AppendAsync(Record{Type: RecAppend, Ch: uint64(g), Seq: uint64(i + 1), Count: 1, Data: data})
				if err != nil {
					t.Errorf("g%d append %d: %v", g, i, err)
					return
				}
				if rng.Intn(40) != 0 {
					continue
				}
				if err := w.WaitSynced(lsn); err != nil {
					t.Errorf("g%d barrier %d: %v", g, lsn, err)
					return
				}
				for {
					c := covered.Load()
					if lsn <= c || covered.CompareAndSwap(c, lsn) {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	w.CrashClose()

	w2, recs := openT(t, dir, Options{})
	defer w2.Close()
	if uint64(len(recs)) < covered.Load() {
		t.Fatalf("recovered %d records, barriers covered LSN %d", len(recs), covered.Load())
	}
	next := make(map[uint64]uint64)
	for _, r := range recs {
		if next[r.Ch]++; r.Seq != next[r.Ch] {
			t.Fatalf("channel %d: recovered seq %d after %d", r.Ch, r.Seq, next[r.Ch]-1)
		}
	}
}

// With the disk stalled inside an fsync, appenders keep going until the
// stage is full — they make no file call of their own — and then block,
// so memory stays at the bound.
func TestStalledFsyncBackpressure(t *testing.T) {
	const frame, bound = 1 << 10, 64 << 10
	stalled, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	opts := Options{Policy: SyncGroup, MaxSegmentSize: bound, FsyncDelay: func() time.Duration {
		once.Do(func() {
			close(stalled)
			<-release
		})
		return 0
	}}
	dir := t.TempDir()
	w, _ := openT(t, dir, opts)
	data := make([]byte, frame-frameHeader-bodyFixed)
	seq := uint64(0)
	appendOne := func() error {
		seq++
		_, err := w.AppendAsync(Record{Type: RecAppend, Ch: 1, Seq: seq, Count: 1, Data: data})
		return err
	}
	if err := appendOne(); err != nil {
		t.Fatal(err)
	}
	barrier := make(chan error, 1)
	go func() { barrier <- w.WaitSynced(1) }()
	<-stalled

	// The committer sits in the fsync holding an empty spare: exactly one
	// stage worth of frames fits without anybody waiting.
	for i := 0; i < bound/frame; i++ {
		if err := appendOne(); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- appendOne() }()
	select {
	case err := <-blocked:
		t.Fatalf("append past the stage bound returned (%v) while the disk was stalled", err)
	case <-time.After(50 * time.Millisecond):
	}
	w.mu.Lock()
	staged := len(w.stage)
	w.mu.Unlock()
	if staged != bound {
		t.Fatalf("stage holds %d bytes under the stall, want the bound %d", staged, bound)
	}

	close(release)
	if err := <-barrier; err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openT(t, dir, Options{})
	if len(recs) != int(seq) {
		t.Fatalf("recovered %d records, want %d", len(recs), seq)
	}
}

// A write failure happens on the committer, not on the appender's
// stack: it is latched, fails the barrier that was waiting and every
// append and barrier after it, and Close reports it.
func TestCommitterErrorIsLatched(t *testing.T) {
	w, _ := openT(t, t.TempDir(), Options{Policy: SyncGroup})
	if err := w.Append(Record{Type: RecAppend, Ch: 1, Seq: 1, Count: 1, Data: payload(0)}); err != nil {
		t.Fatal(err)
	}
	w.active.f.Close() // the active file fails under the running log

	lsn, err := w.AppendAsync(Record{Type: RecAppend, Ch: 1, Seq: 2, Count: 1, Data: payload(1)})
	if err != nil {
		t.Fatalf("staging needs no file, got %v", err)
	}
	if err := w.WaitSynced(lsn); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("barrier over a failed write: err = %v", err)
	}
	if _, err := w.AppendAsync(Record{Type: RecAppend, Ch: 1, Seq: 3, Count: 1}); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("append after the failure: err = %v", err)
	}
	if err := w.WaitSynced(lsn); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("later barrier: err = %v", err)
	}
	if err := w.WaitSynced(1); err != nil {
		t.Fatalf("barrier over the prefix synced before the failure: %v", err)
	}
	if err := w.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Close: err = %v", err)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, good := range []string{"always", "group", "interval", "GROUP"} {
		if _, err := PolicyByName(good); err != nil {
			t.Fatalf("PolicyByName(%q): %v", good, err)
		}
	}
	if _, err := PolicyByName("sometimes"); err == nil {
		t.Fatal("PolicyByName accepted an unknown policy")
	}
}
