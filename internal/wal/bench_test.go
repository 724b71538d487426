package wal

import (
	"fmt"
	"os"
	"sync"
	"testing"
)

// benchFrame is the size of one 64-record batch envelope of the q1 workload.
const benchFrame = 4500

// appendFrames appends n frames on channel ch, with a barrier after every
// barrierEvery-th (0: never) and a trim every 1024 so that sealed segments
// are deleted and the benchmark's disk use stays at a few segments.
func appendFrames(b *testing.B, w *WAL, ch uint64, n, barrierEvery int, data []byte) {
	for i := 1; i <= n; i++ {
		lsn, err := w.AppendAsync(Record{Type: RecAppend, Ch: ch, Seq: uint64(i), Count: 1, Data: data})
		if err != nil {
			b.Error(err)
			return
		}
		if barrierEvery > 0 && i%barrierEvery == 0 {
			if err := w.WaitSynced(lsn); err != nil {
				b.Error(err)
				return
			}
		}
		if i%1024 == 0 {
			if err := w.Trim(ch, uint64(i)); err != nil {
				b.Error(err)
				return
			}
		}
	}
}

func reportPerFrame(b *testing.B, w *WAL) {
	st := w.Stats()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
	b.ReportMetric(float64(st.Appends)/float64(st.Fsyncs), "appends/fsync")
}

// BenchmarkAppendAsync is the sender's side of the pipelined path: frames
// appended with nobody waiting, from one goroutine and from four.
func BenchmarkAppendAsync(b *testing.B) {
	for _, goroutines := range []int{1, 4} {
		b.Run(fmt.Sprintf("goroutines=%d", goroutines), func(b *testing.B) {
			w, _, err := Open(b.TempDir(), Options{Policy: SyncGroup})
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, benchFrame)
			b.SetBytes(benchFrame)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				n := b.N / goroutines
				if g == 0 {
					n += b.N % goroutines
				}
				wg.Add(1)
				go func(g, n int) {
					defer wg.Done()
					appendFrames(b, w, uint64(g), n, 0, data)
				}(g, n)
			}
			wg.Wait()
			b.StopTimer()
			reportPerFrame(b, w)
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAppendBarrierEvery puts a durability barrier after every 1st,
// 64th and 1024th append: from one fsync per frame to the checkpoint
// cadence of a drain.
func BenchmarkAppendBarrierEvery(b *testing.B) {
	for _, every := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			w, _, err := Open(b.TempDir(), Options{Policy: SyncGroup})
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, benchFrame)
			b.SetBytes(benchFrame)
			b.ReportAllocs()
			b.ResetTimer()
			appendFrames(b, w, 1, b.N, every, data)
			b.StopTimer()
			reportPerFrame(b, w)
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRecoverScan reopens a log of 4096 frames in five segments.
func BenchmarkRecoverScan(b *testing.B) {
	const frames = 4096
	dir := b.TempDir()
	w, _, err := Open(dir, Options{Policy: SyncGroup})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, benchFrame)
	for i := 1; i <= frames; i++ {
		if _, err := w.AppendAsync(Record{Type: RecAppend, Ch: 1, Seq: uint64(i), Count: 1, Data: data}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(frames * (frameHeader + bodyFixed + benchFrame))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, recs, err := Open(dir, Options{Policy: SyncGroup})
		if err != nil || len(recs) != frames {
			b.Fatalf("recovered %d of %d frames: %v", len(recs), frames, err)
		}
		// Each Open adds an empty active segment, removed here so that every
		// iteration scans the same files.
		path := w.active.path
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		os.Remove(path)
	}
}
