package msglog

import (
	"fmt"
	"testing"
)

// The test batch format: data[0] is the first sequence number, every
// following byte is one record (its value = its sequence number), so slices
// are trivially checkable.
func testBatch(firstSeq uint64, count int) []byte {
	b := []byte{byte(firstSeq)}
	for i := 0; i < count; i++ {
		b = append(b, byte(firstSeq+uint64(i)))
	}
	return b
}

func testSlicer(data []byte, fromSeq, toSeq uint64) ([]byte, int, error) {
	if len(data) < 2 {
		return nil, 0, fmt.Errorf("short test batch")
	}
	first := uint64(data[0])
	last := first + uint64(len(data)-2)
	lo, hi := first, last
	if fromSeq > lo {
		lo = fromSeq
	}
	if toSeq < hi {
		hi = toSeq
	}
	if lo > hi {
		return nil, 0, nil
	}
	out := []byte{byte(lo)}
	out = append(out, data[1+lo-first:1+hi-first+1]...)
	return out, int(hi - lo + 1), nil
}

// expectRecords asserts that entries cover exactly seqs [from, to] in order.
func expectRecords(t *testing.T, entries []Entry, from, to uint64) {
	t.Helper()
	var seqs []uint64
	for _, e := range entries {
		if int(e.Data[0]) != int(e.Seq) {
			t.Fatalf("entry first-seq byte %d != Seq %d", e.Data[0], e.Seq)
		}
		if e.Count != len(e.Data)-1 {
			t.Fatalf("entry count %d != payload records %d", e.Count, len(e.Data)-1)
		}
		for i := 0; i < e.Count; i++ {
			seqs = append(seqs, e.Seq+uint64(i))
		}
	}
	want := to - from + 1
	if from > to {
		want = 0
	}
	if uint64(len(seqs)) != want {
		t.Fatalf("got %d records %v, want %d covering [%d,%d]", len(seqs), seqs, want, from, to)
	}
	for i, s := range seqs {
		if s != from+uint64(i) {
			t.Fatalf("record %d has seq %d, want %d (all: %v)", i, s, from+uint64(i), seqs)
		}
	}
}

func TestBatchRangeRecordGranular(t *testing.T) {
	l := NewWithSlicer(testSlicer)
	l.AppendBatch(1, 1, 4, testBatch(1, 4)) // [1,4]
	l.AppendBatch(1, 5, 3, testBatch(5, 3)) // [5,7]
	l.AppendBatch(1, 8, 5, testBatch(8, 5)) // [8,12]
	expectRecords(t, l.Range(1, 0, 12), 1, 12)
	// Both boundaries mid-batch: (2, 9] must slice the first and last batch.
	expectRecords(t, l.Range(1, 2, 9), 3, 9)
	// Range entirely inside one batch.
	expectRecords(t, l.Range(1, 8, 11), 9, 11)
	// No overlap.
	expectRecords(t, l.Range(1, 12, 20), 1, 0)
}

func TestBatchTrimStraddle(t *testing.T) {
	l := NewWithSlicer(testSlicer)
	l.AppendBatch(1, 1, 4, testBatch(1, 4))
	l.AppendBatch(1, 5, 4, testBatch(5, 4))
	l.Trim(1, 6) // mid-second-batch: [7,8] must survive
	expectRecords(t, l.Range(1, 0, 100), 7, 8)
	if st := l.Stats(); st.Records != 2 {
		t.Fatalf("Stats.Records = %d, want 2", st.Records)
	}
}

func TestBatchTrimSuffixStraddle(t *testing.T) {
	l := NewWithSlicer(testSlicer)
	l.AppendBatch(1, 1, 4, testBatch(1, 4))
	l.AppendBatch(1, 5, 4, testBatch(5, 4))
	l.TrimSuffix(1, 6) // stale suffix [7,8] must not survive
	expectRecords(t, l.Range(1, 0, 100), 1, 6)
	// Appending the regenerated records continues the sequence.
	l.AppendBatch(1, 7, 2, testBatch(7, 2))
	expectRecords(t, l.Range(1, 0, 100), 1, 8)
}

func TestBatchStatsCountsRecords(t *testing.T) {
	l := NewWithSlicer(testSlicer)
	l.AppendBatch(1, 1, 10, testBatch(1, 10))
	l.Append(2, 1, []byte{1, 1})
	st := l.Stats()
	if st.Entries != 2 || st.Records != 11 {
		t.Fatalf("Stats = %+v, want 2 entries / 11 records", st)
	}
}

func TestBatchedAppendWithoutSlicerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().AppendBatch(1, 1, 2, []byte{1, 1, 2})
}

// TestAppendBatchTakesOwningCopy: the engine recycles (and, under the
// poison debug mode, scribbles) wire frames after delivery, so the log must
// not alias the caller's buffer.
func TestAppendBatchTakesOwningCopy(t *testing.T) {
	l := NewWithSlicer(testSlicer)
	frame := testBatch(1, 4)
	l.AppendBatch(1, 1, 4, frame)
	for i := range frame {
		frame[i] = 0xDB // simulate a poisoned recycle of the sender's frame
	}
	entries := l.Range(1, 0, 100)
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	for _, b := range entries[0].Data {
		if b == 0xDB {
			t.Fatal("log entry aliases the recycled frame")
		}
	}
	expectRecords(t, entries, 1, 4)
}

// TestArenaEntriesSurvive appends batches of mixed sizes from one recycled,
// poisoned frame buffer — across chunk boundaries and past the size that
// gets its own allocation — and checks that every entry still reads back
// intact after the trims and re-framings that replace its neighbours.
func TestArenaEntriesSurvive(t *testing.T) {
	l := NewWithSlicer(testSlicer)
	// testBatch numbers records with one byte, so sequence numbers stay
	// below 256 and the sizes come from padding appended after the records;
	// testSlicer would count padding as records, so it only ever sees the
	// unpadded boundary batches below.
	sizes := []int{0, 100, 5000, arenaChunkMin, arenaChunk / 4, arenaChunk/4 + 1, 3 * arenaChunk}
	buf := make([]byte, 0, 4*arenaChunk)
	var want [][]byte
	seq := uint64(1)
	for round := 0; round < 12; round++ {
		count := 1 + round%3
		buf = append(buf[:0], testBatch(seq, count)...)
		if round != 4 && round != 10 {
			buf = append(buf, make([]byte, sizes[round%len(sizes)])...)
		}
		l.AppendBatch(7, seq, count, buf)
		want = append(want, append([]byte(nil), buf...))
		for i := range buf {
			buf[i] = 0xDB // the sender's frame is recycled and poisoned
		}
		seq += uint64(count)
	}
	check := func(entries []Entry, want [][]byte) {
		t.Helper()
		if len(entries) != len(want) {
			t.Fatalf("%d entries, want %d", len(entries), len(want))
		}
		for i, e := range entries {
			if string(e.Data) != string(want[i]) {
				t.Fatalf("entry %d (seq %d, %d bytes) was overwritten", i, e.Seq, len(e.Data))
			}
			if cap(e.Data) != len(e.Data) {
				t.Fatalf("entry %d can be appended to in place: len %d cap %d", i, len(e.Data), cap(e.Data))
			}
		}
	}
	check(l.Range(7, 0, seq), want)

	// Rounds 4 and 10 hold seqs [8,9] and [20,21]: trim into the first and
	// cut the log back into the second, re-framing both.
	l.Trim(7, 8)
	l.TrimSuffix(7, 20)
	got := l.Range(7, 0, seq)
	expectRecords(t, got[:1], 9, 9)
	check(got[1:6], want[5:10])
	expectRecords(t, got[6:], 20, 20)
	if st := l.Stats(); st.SlicerErrors != 0 || st.Records != 12 {
		t.Fatalf("stats after trims: %+v", st)
	}
}

// TestTrimReslices: a long append/trim cycle keeps the entries right and
// the backing array proportional to what is live, with no copy per Trim.
func TestTrimReslices(t *testing.T) {
	l := New()
	const live = 100
	for seq := uint64(1); seq <= 20000; seq++ {
		l.Append(1, seq, []byte{byte(seq)})
		if seq > live {
			l.Trim(1, seq-live)
		}
	}
	got := l.Range(1, 0, 1<<62)
	if len(got) != live || got[0].Seq != 20000-live+1 || got[live-1].Seq != 20000 {
		t.Fatalf("live window wrong: %d entries", len(got))
	}
	cl, _ := l.lookup(1)
	if c := cap(cl.entries); c > 4*live {
		t.Fatalf("backing array holds %d slots for %d live entries", c, live)
	}
}

func BenchmarkAppendBatch(b *testing.B) {
	frame := make([]byte, 4500)
	l := NewWithSlicer(testSlicer)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i)*64 + 1
		l.AppendBatch(1, seq, 64, frame)
		if i%1024 == 1023 { // a checkpoint's trim, so the log stays bounded
			l.Trim(1, seq-1)
		}
	}
}

// BenchmarkTrim trims one frame off a log that keeps 4096 live: the cost
// of a Trim must not depend on how many entries survive it.
func BenchmarkTrim(b *testing.B) {
	frame := make([]byte, 4500)
	l := NewWithSlicer(testSlicer)
	const live = 4096
	for i := 0; i < live; i++ {
		l.AppendBatch(1, uint64(i)*64+1, 64, frame)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.AppendBatch(1, uint64(live+i)*64+1, 64, frame)
		l.Trim(1, uint64(i+1)*64)
	}
}
