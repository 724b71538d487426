package msglog

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"checkmate/internal/wal"
)

func openDurableT(t *testing.T, dir string) *DurableLog {
	t.Helper()
	// Test slicer: frames are newline-joined "s<seq>" tokens, so the
	// record seqs are self-describing and slicing is a token filter.
	slicer := func(data []byte, fromSeq, toSeq uint64) ([]byte, int, error) {
		recs := bytes.Split(data, []byte{'\n'})
		var out [][]byte
		n := 0
		for _, r := range recs {
			var seq uint64
			fmt.Sscanf(string(r), "s%d", &seq)
			if seq >= fromSeq && seq <= toSeq {
				out = append(out, r)
				n++
			}
		}
		if n == 0 {
			return nil, 0, nil
		}
		return bytes.Join(out, []byte{'\n'}), n, nil
	}
	d, err := OpenDurable(dir, wal.Options{Policy: wal.SyncGroup}, slicer)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return d
}

// frame builds a batch envelope of count records starting at firstSeq,
// in the "s<seq>" token format the test slicer understands.
func frame(firstSeq uint64, count int) []byte {
	var parts [][]byte
	for i := 0; i < count; i++ {
		parts = append(parts, []byte(fmt.Sprintf("s%d", firstSeq+uint64(i))))
	}
	return bytes.Join(parts, []byte{'\n'})
}

func TestDurableLogRecoversAppends(t *testing.T) {
	dir := t.TempDir()
	d := openDurableT(t, dir)
	d.AppendBatch(1, 1, 4, frame(1, 4))
	d.AppendBatch(1, 5, 4, frame(5, 4))
	d.AppendBatch(2, 1, 1, frame(1, 1))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDurableT(t, dir)
	defer d2.Close()
	got := d2.Range(1, 0, 8)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 5 {
		t.Fatalf("recovered range mismatch: %+v", got)
	}
	if !bytes.Equal(got[0].Data, frame(1, 4)) {
		t.Fatalf("recovered data mismatch: %q", got[0].Data)
	}
	if st := d2.Stats(); st.Records != 9 {
		t.Fatalf("recovered %d records, want 9", st.Records)
	}
}

func TestDurableLogRecoversTrims(t *testing.T) {
	dir := t.TempDir()
	d := openDurableT(t, dir)
	d.AppendBatch(1, 1, 4, frame(1, 4))
	d.AppendBatch(1, 5, 4, frame(5, 4))
	d.Trim(1, 4)       // drops the first frame
	d.TrimSuffix(1, 6) // re-frames the second to [5,6]
	d.Close()

	d2 := openDurableT(t, dir)
	defer d2.Close()
	got := d2.Range(1, 0, 100)
	if len(got) != 1 || got[0].Seq != 5 || got[0].Count != 2 {
		t.Fatalf("recovered state after trims: %+v, want single [5,6] frame", got)
	}
}

func TestDurableLogCrashKeepsAcknowledged(t *testing.T) {
	dir := t.TempDir()
	d := openDurableT(t, dir)
	// Group commit: AppendBatch only stages the frame; what a returned
	// Barrier covered is what a crash must preserve.
	for i := 0; i < 10; i++ {
		d.AppendBatch(3, uint64(i)+1, 1, frame(uint64(i)+1, 1))
	}
	if err := d.Barrier(d.LastLSN()); err != nil {
		t.Fatal(err)
	}
	d.CrashClose()

	d2 := openDurableT(t, dir)
	defer d2.Close()
	if got := d2.Range(3, 0, 100); len(got) != 10 {
		t.Fatalf("crash lost acknowledged frames: got %d, want 10", len(got))
	}
}

// The converse: with no barrier a crash may lose frames (how many depends
// on how far the committer got), but what survives is a contiguous prefix
// of every channel.
func TestDurableLogCrashWithoutBarrierKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	d := openDurableT(t, dir)
	// 4.5 KB frames: the stage passes its flush threshold several times,
	// so the committer has written some of them when the crash comes.
	const channels, perCh = 3, 100
	pad := bytes.Repeat([]byte{'\n'}, 4500)
	for i := 0; i < perCh; i++ {
		for ch := uint64(1); ch <= channels; ch++ {
			d.AppendBatch(ch, uint64(i)+1, 1, append(frame(uint64(i)+1, 1), pad...))
		}
	}
	d.CrashClose()

	d2 := openDurableT(t, dir)
	defer d2.Close()
	total := 0
	for ch := uint64(1); ch <= channels; ch++ {
		for i, e := range d2.Range(ch, 0, 1<<62) {
			if e.Seq != uint64(i)+1 {
				t.Fatalf("channel %d: entry %d has seq %d: the recovered log has a gap", ch, i, e.Seq)
			}
			total++
		}
	}
	t.Logf("recovered %d of %d frames", total, channels*perCh)
}

// A WAL failure after Open happens on the WAL's committer. It must fail
// the barrier (so the checkpoint is not reported) and show in Stats.
func TestDurableLogWALFailureIsCounted(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, wal.Options{Policy: wal.SyncGroup, MaxSegmentSize: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Append(1, 1, []byte("before"))
	if err := d.Barrier(d.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.WALErrors != 0 {
		t.Fatalf("WALErrors = %d before any failure", st.WALErrors)
	}
	// With the directory gone the next rotation cannot open its segment.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(2); seq <= 10; seq++ {
		d.Append(1, seq, bytes.Repeat([]byte("x"), 100))
	}
	if err := d.Barrier(d.LastLSN()); err == nil {
		t.Fatal("Barrier succeeded over a WAL that could not rotate")
	}
	if st := d.Stats(); st.WALErrors == 0 {
		t.Fatal("the WAL failure is not visible in Stats")
	}
	if got := d.Range(1, 0, 100); len(got) != 10 {
		t.Fatalf("the in-memory log stopped working: %d entries", len(got))
	}
}

func TestDurableLogTrimDeletesSegments(t *testing.T) {
	dir := t.TempDir()
	slicer := func(data []byte, fromSeq, toSeq uint64) ([]byte, int, error) {
		return data, 1, nil
	}
	d, err := OpenDurable(dir, wal.Options{Policy: wal.SyncAlways, MaxSegmentSize: 256}, slicer)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	big := bytes.Repeat([]byte("z"), 100)
	for i := 0; i < 20; i++ {
		d.AppendBatch(1, uint64(i)+1, 1, big)
	}
	d.Trim(1, 20)
	if st := d.WALStats(); st.SegmentsDeleted == 0 {
		t.Fatalf("trim freed no segments: %+v", st)
	}
}
