package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"checkmate/internal/dedup"
	"checkmate/internal/mq"
	"checkmate/internal/msglog"
	"checkmate/internal/objstore"
	"checkmate/internal/recovery"
	"checkmate/internal/statestore"
	"checkmate/internal/trace"
	"checkmate/internal/vclock"
	"checkmate/internal/wal"
	"checkmate/internal/wire"
)

// frameRecords is the call batch of the layer replay: the engine's own
// batch size, so per-call costs amortize as they do in a run.
const frameRecords = batchMaxRecords

// replayChannel is the one channel id the replayed log layers write to.
const replayChannel = 1

// replayer drives a workload's own records through each layer's public
// functions on one goroutine, outside the engine. Every call batch is a
// span on the layer's track, inside that track's "replay" span; the span's
// round is the frame index and its arg the records (or keys, or bytes) it
// covered. What a layer costs per record here, times how often the engine
// calls it per input record, is that layer's row in the budget table.
type replayer struct {
	tr  *trace.Tracer
	out map[string]float64 // metric name → value

	// The replayed input, filled in by the mq and wire layers and read by
	// the ones after them.
	frames   [][]mq.Record
	total    int      // records in frames
	encoded  [][]byte // frames[i]'s values, type-tagged, back to back
	bounds   [][]int  // end offset of each value within encoded[i]
	firstSeq []uint64 // channel sequence number of frames[i]'s first record
}

// layerTrack is one layer's track plus the bounds of its replay span.
type layerTrack struct {
	tk    *trace.Track
	tr    *trace.Tracer
	start int64
}

func (r *replayer) layer(name string) *layerTrack {
	return &layerTrack{tk: r.tr.NewTrack("replay."+name, trace.PIDEngine), tr: r.tr, start: r.tr.Now()}
}

// span times f as one call batch covering n items and returns its duration.
func (l *layerTrack) span(name string, frame, n int, f func()) time.Duration {
	start := l.tr.Now()
	f()
	end := l.tr.Now()
	l.tk.SpanAt(name, uint64(frame), uint64(n), start, end)
	return time.Duration(end - start)
}

// done closes the layer's replay span around everything recorded so far.
func (l *layerTrack) done() { l.tk.SpanAt("replay", 0, 0, l.start, l.tr.Now()+1) }

// perItem is total nanoseconds over items.
func perItem(total time.Duration, items int) float64 {
	return ratio(float64(total.Nanoseconds()), float64(items))
}

// newReplayer sizes the tracer so no track laps: the busiest track records
// a few spans per frame.
func newReplayer(records int) *replayer {
	frames := records/frameRecords + 1
	return &replayer{tr: trace.New(4*frames + 64), out: map[string]float64{}}
}

// wholeFrame is the slicer of the replayed message log. The replay asks
// only for frame-aligned ranges, which never reach the slicer.
func wholeFrame(data []byte, fromSeq, toSeq uint64) ([]byte, int, error) {
	return nil, 0, fmt.Errorf("bench: replay range [%d,%d] is not frame aligned", fromSeq, toSeq)
}

// blobChunk is the size of the blobs the object-store layer is given.
const blobChunk = 1 << 20

// run replays up to limit records of in through every layer. The WAL (and,
// for a durable workload, the object store) write to a directory of their
// own under tmpParent, removed at the end.
func (r *replayer) run(in *input, limit int, durable bool, instances int, tmpParent string) error {
	diskDir, err := os.MkdirTemp(tmpParent, "replay-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(diskDir)
	if err := r.mq(in, limit); err != nil {
		return err
	}
	if err := r.wire(); err != nil {
		return err
	}
	r.dedup()
	if err := r.msglog(); err != nil {
		return err
	}
	if err := r.wal(filepath.Join(diskDir, "wal")); err != nil {
		return err
	}
	base, err := r.statestore()
	if err != nil {
		return err
	}
	storeCfg := objstore.Config{} // latency simulation off
	if durable {
		storeCfg.Dir = filepath.Join(diskDir, "blobs")
	}
	if err := r.objstore(storeCfg, base); err != nil {
		return err
	}
	r.vclock(instances)
	return nil
}

// mq reads the input in frames, the way a source instance does.
func (r *replayer) mq(in *input, limit int) error {
	lt := r.layer("mq")
	var readDur time.Duration
	for _, name := range in.broker.Topics() {
		topic, err := in.broker.Topic(name)
		if err != nil {
			return err
		}
		for _, part := range topic.Partitions {
			for off := uint64(0); r.total < limit; off += frameRecords {
				frame := make([]mq.Record, 0, frameRecords)
				readDur += lt.span("mq.read", len(r.frames), frameRecords, func() {
					frame = part.ReadBatch(frame, off, min(frameRecords, limit-r.total))
				})
				if len(frame) == 0 {
					break
				}
				r.frames = append(r.frames, frame)
				r.total += len(frame)
			}
		}
	}
	lt.done()
	if r.total == 0 {
		return fmt.Errorf("bench: layer replay has no input")
	}
	r.out["mq.read_ns"] = perItem(readDur, r.total)
	return nil
}

// wire encodes every value into its frame, then decodes it back.
func (r *replayer) wire() error {
	lt := r.layer("wire")
	enc := wire.NewEncoder(nil)
	r.encoded = make([][]byte, len(r.frames))
	r.bounds = make([][]int, len(r.frames))
	var encDur, decDur time.Duration
	for i, frame := range r.frames {
		encDur += lt.span("wire.encode", i, len(frame), func() {
			enc.Reset()
			ends := make([]int, len(frame))
			for j, rec := range frame {
				wire.EncodeValue(enc, rec.Value)
				ends[j] = enc.Len()
			}
			r.bounds[i] = ends
		})
		r.encoded[i] = append([]byte(nil), enc.Bytes()...)
	}
	dec := wire.NewDecoder(nil)
	var decodeErr error
	for i, frame := range r.frames {
		decDur += lt.span("wire.decode", i, len(frame), func() {
			dec.ResetBytes(r.encoded[i])
			var prev wire.Value
			for range frame {
				v, err := wire.DecodeValueInto(dec, prev)
				if err != nil {
					decodeErr = err
					return
				}
				prev = v
			}
		})
	}
	lt.done()
	if decodeErr != nil {
		return fmt.Errorf("bench: wire replay: %w", decodeErr)
	}
	r.out["wire.encode_ns"] = perItem(encDur, r.total)
	r.out["wire.decode_ns"] = perItem(decDur, r.total)
	return nil
}

// dedup shows the filter a first sighting of every uid, then the same uid
// again.
func (r *replayer) dedup() {
	lt := r.layer("dedup")
	set := dedup.NewSet(1 << 14)
	var checkDur, dupDur time.Duration
	uid := uint64(0)
	for i, frame := range r.frames {
		first := uid
		checkDur += lt.span("dedup.check", i, len(frame), func() {
			for range frame {
				uid++
				set.Check(uid)
			}
		})
		dupDur += lt.span("dedup.dup_check", i, len(frame), func() {
			for u := first + 1; u <= uid; u++ {
				set.Check(u)
			}
		})
	}
	lt.done()
	r.out["dedup.check_ns"] = perItem(checkDur, r.total)
	r.out["dedup.dup_check_ns"] = perItem(dupDur, r.total)
}

// msglog appends every frame, reads it all back in 64 ranges and trims it.
func (r *replayer) msglog() error {
	lt := r.layer("msglog")
	log := msglog.NewWithSlicer(wholeFrame)
	var appendDur, rangeDur, trimDur time.Duration
	seq := uint64(1)
	r.firstSeq = make([]uint64, len(r.frames)+1)
	for i, frame := range r.frames {
		r.firstSeq[i] = seq
		appendDur += lt.span("msglog.append", i, len(frame), func() {
			log.AppendBatch(replayChannel, seq, len(frame), r.encoded[i])
		})
		seq += uint64(len(frame))
	}
	r.firstSeq[len(r.frames)] = seq
	step := max(len(r.frames)/64, 1)
	ranged := 0
	for i := 0; i < len(r.frames); i += step {
		from, to := r.firstSeq[i], r.firstSeq[min(i+step, len(r.frames))]
		rangeDur += lt.span("msglog.range", i, int(to-from), func() {
			for _, e := range log.Range(replayChannel, from-1, to-1) {
				ranged += e.Count
			}
		})
	}
	if ranged != r.total {
		return fmt.Errorf("bench: msglog replay read back %d of %d records", ranged, r.total)
	}
	for i := 0; i < len(r.frames); i += step {
		from, to := r.firstSeq[i], r.firstSeq[min(i+step, len(r.frames))]
		trimDur += lt.span("msglog.trim", i, int(to-from), func() {
			log.Trim(replayChannel, to-1)
		})
	}
	lt.done()
	r.out["msglog.append_ns"] = perItem(appendDur, r.total)
	r.out["msglog.range_ns"] = perItem(rangeDur, r.total)
	r.out["msglog.trim_ns"] = perItem(trimDur, r.total)
	return nil
}

// wal sends the same frames through AppendAsync, waits at one barrier and
// reopens the log for one recovery scan.
func (r *replayer) wal(dir string) error {
	lt := r.layer("wal")
	w, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncGroup})
	if err != nil {
		return err
	}
	var appendDur time.Duration
	var lsn uint64
	var walErr error
	for i, frame := range r.frames {
		appendDur += lt.span("wal.append", i, len(frame), func() {
			lsn, err = w.AppendAsync(wal.Record{Type: wal.RecAppend, Ch: replayChannel, Seq: r.firstSeq[i], Count: uint32(len(frame)), Data: r.encoded[i]})
			if err != nil {
				walErr = err
			}
		})
	}
	syncDur := lt.span("wal.sync", 0, r.total, func() {
		if err := w.WaitSynced(lsn); err != nil {
			walErr = err
		}
	})
	if err := w.Close(); err != nil {
		walErr = err
	}
	if walErr != nil {
		return fmt.Errorf("bench: wal replay: %w", walErr)
	}
	var recovered []wal.Record
	recoverDur := lt.span("wal.recover", 0, r.total, func() {
		w, recovered, err = wal.Open(dir, wal.Options{Policy: wal.SyncGroup})
	})
	if err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	lt.done()
	if len(recovered) != len(r.frames) {
		return fmt.Errorf("bench: wal replay recovered %d of %d frames", len(recovered), len(r.frames))
	}
	r.out["wal.append_ns"] = perItem(appendDur, r.total)
	r.out["wal.sync_ms"] = ms(syncDur)
	r.out["wal.recover_ns_per_rec"] = perItem(recoverDur, r.total)
	return nil
}

// statestore puts and gets every value under its record's key, captures
// and materializes a full base, dirties a tenth of the keys and captures
// the delta, then restores both into a fresh store. It returns the
// materialized base.
func (r *replayer) statestore() ([]byte, error) {
	lt := r.layer("statestore")
	st := statestore.New()
	var putDur, getDur time.Duration
	for i, frame := range r.frames {
		putDur += lt.span("statestore.put", i, len(frame), func() {
			from := 0
			for j, rec := range frame {
				st.Put(rec.Key, r.encoded[i][from:r.bounds[i][j]])
				from = r.bounds[i][j]
			}
		})
	}
	for i, frame := range r.frames {
		getDur += lt.span("statestore.get", i, len(frame), func() {
			for _, rec := range frame {
				st.Get(rec.Key)
			}
		})
	}
	keys := st.Len()
	var full, delta *statestore.Capture
	fullEnc, deltaEnc := wire.NewEncoder(nil), wire.NewEncoder(nil)
	capFull := lt.span("statestore.capture_full", 0, keys, func() { full = st.CaptureFull() })
	matDur := lt.span("statestore.materialize", 0, keys, func() { full.MaterializeTo(fullEnc) })
	full.Release()
	for i := 0; i < len(r.frames); i += 10 {
		for _, rec := range r.frames[i] {
			st.Put(rec.Key, r.encoded[i][:r.bounds[i][0]])
		}
	}
	dirty := st.DirtyCount()
	capDelta := lt.span("statestore.capture_delta", 0, dirty, func() { delta = st.CaptureDelta() })
	delta.MaterializeTo(deltaEnc)
	delta.Release()
	restored := statestore.New()
	var restoreErr error
	restoreDur := lt.span("statestore.restore", 0, keys, func() {
		restoreErr = restored.Restore(wire.NewDecoder(fullEnc.Bytes()))
	})
	applyDur := lt.span("statestore.apply_delta", 0, dirty, func() {
		if restoreErr == nil {
			restoreErr = restored.ApplyDelta(wire.NewDecoder(deltaEnc.Bytes()))
		}
	})
	lt.done()
	if restoreErr != nil {
		return nil, fmt.Errorf("bench: statestore replay: %w", restoreErr)
	}
	if restored.Len() != keys {
		return nil, fmt.Errorf("bench: statestore replay restored %d of %d keys", restored.Len(), keys)
	}
	r.out["statestore.put_ns"] = perItem(putDur, r.total)
	r.out["statestore.get_ns"] = perItem(getDur, r.total)
	r.out["statestore.capture_full_ns_per_key"] = perItem(capFull, keys)
	r.out["statestore.materialize_ns_per_key"] = perItem(matDur, keys)
	r.out["statestore.capture_delta_ns_per_key"] = perItem(capDelta, dirty)
	r.out["statestore.restore_ns_per_key"] = perItem(restoreDur, keys)
	r.out["statestore.apply_delta_ns_per_key"] = perItem(applyDur, dirty)
	return fullEnc.Bytes(), nil
}

// objstore puts blob in 1 MiB pieces and gets them back: on disk for a
// durable workload, in memory otherwise.
func (r *replayer) objstore(cfg objstore.Config, blob []byte) error {
	lt := r.layer("objstore")
	store, err := objstore.Open(cfg)
	if err != nil {
		return err
	}
	var putDur, getDur time.Duration
	var storeErr error
	key := func(i int) string { return fmt.Sprintf("replay/%06d", i) }
	chunks := 0
	for off := 0; off < len(blob); off += blobChunk {
		chunk := blob[off:min(off+blobChunk, len(blob))]
		putDur += lt.span("objstore.put", chunks, len(chunk), func() {
			if err := store.Put(key(chunks), chunk); err != nil {
				storeErr = err
			}
		})
		chunks++
	}
	for i := 0; i < chunks; i++ {
		getDur += lt.span("objstore.get", i, min(blobChunk, len(blob)-i*blobChunk), func() {
			if _, err := store.Get(key(i)); err != nil {
				storeErr = err
			}
		})
	}
	lt.done()
	if storeErr != nil {
		return fmt.Errorf("bench: objstore replay: %w", storeErr)
	}
	r.out["objstore.put_ms_per_mb"] = ratio(ms(putDur), mib(uint64(len(blob))))
	r.out["objstore.get_ms_per_mb"] = ratio(ms(getDur), mib(uint64(len(blob))))
	return nil
}

// vclock merges and encodes the vector a CIC piggyback would carry for this
// job. No workload runs CIC end to end; these two numbers are all it gets.
func (r *replayer) vclock(instances int) {
	lt := r.layer("vclock")
	enc := wire.NewEncoder(nil)
	a, b := vclock.NewVector(instances), vclock.NewVector(instances)
	var mergeDur, encDur time.Duration
	for i := range r.frames {
		mergeDur += lt.span("vclock.merge", i, frameRecords, func() {
			for k := 0; k < frameRecords; k++ {
				b[k%instances]++
				a.MergeMax(b)
			}
		})
		encDur += lt.span("vclock.encode", i, frameRecords, func() {
			for k := 0; k < frameRecords; k++ {
				enc.Reset()
				a.Encode(enc)
			}
		})
	}
	lt.done()
	r.out["vclock.merge_ns"] = perItem(mergeDur, len(r.frames)*frameRecords)
	r.out["vclock.encode_ns"] = perItem(encDur, len(r.frames)*frameRecords)
}

// recoveryLine times recovery-line computation and validation on the
// checkpoint metadata the paced run left behind.
func (r *replayer) recoveryLine(instances int, channels []recovery.ChannelInfo, metas []recovery.Meta) error {
	const rounds = 32
	lt := r.layer("recovery")
	var findDur, validDur time.Duration
	var invalid error
	for i := 0; i < rounds; i++ {
		var res recovery.Result
		findDur += lt.span("recovery.findline", i, len(metas), func() { res = recovery.FindLine(instances, channels, metas) })
		validDur += lt.span("recovery.validate", i, len(metas), func() { invalid = recovery.Validate(channels, metas, res.Line) })
		if invalid != nil {
			return fmt.Errorf("bench: recovery line of the paced run is inconsistent: %w", invalid)
		}
	}
	lt.done()
	r.out["recovery.findline_us"] = float64(findDur.Microseconds()) / rounds
	r.out["recovery.validate_us"] = float64(validDur.Microseconds()) / rounds
	return nil
}

// write exports the replay spans and checks the file the way CI checks
// engine traces.
func (r *replayer) write(path string) (spans int, err error) {
	if err := r.tr.WriteChromeFile(path); err != nil {
		return 0, err
	}
	return trace.ValidateChromeFile(path)
}
