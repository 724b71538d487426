// Package wal implements a segment-rotating, CRC32C-framed write-ahead
// log for the message-log durability tier.
//
// Records are length-prefixed (ch, firstSeq, count, payload) frames
// appended to an active segment file. The active segment rotates at
// MaxSegmentSize; sealed segments are immutable and are deleted whole
// once the trim frontier passes every record they contain. Recovery
// scans the segment files in order and stops at the first torn or
// corrupt frame, so a crash mid-write loses at most the unacknowledged
// tail.
//
// No appender touches the filesystem. An append builds its CRC'd frame
// into an in-memory stage under a short lock and returns the LSN. One
// committer goroutine swaps the stage for its spare (double buffer),
// issues one write per pass, rotates segments itself, and fsyncs only
// when somebody waits for durability or a segment is sealed. The stage
// is bounded by MaxSegmentSize; appenders block past that, so a stalled
// disk turns into back-pressure rather than memory.
//
// The three sync policies share that path and differ only in who waits
// and what wakes the committer:
//
//   - SyncAlways: every append (Append and AppendAsync) waits for an
//     fsync covering it; concurrent appenders share one.
//   - SyncGroup: Append waits, AppendAsync does not; WaitSynced — the
//     caller's durability barrier — demands the fsync. Between barriers
//     the log is only written, or still staged.
//   - SyncInterval: nobody demands; a tick every syncInterval makes the
//     committer write and fsync what is pending, and WaitSynced waits for
//     that tick. A crash may lose up to one interval of appends.
//
// What is durable is what a returned WaitSynced or blocking Append
// covered. A process crash additionally loses the staged frames, so the
// log on disk afterwards is a gap-free prefix of the appends that holds
// at least every frame such a call covered.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"checkmate/internal/trace"
)

// SyncPolicy selects when appends become durable.
type SyncPolicy string

const (
	// SyncAlways fsyncs on every append before acknowledging.
	SyncAlways SyncPolicy = "always"
	// SyncGroup batches concurrent appends into one fsync (group commit).
	SyncGroup SyncPolicy = "group"
	// SyncInterval acknowledges immediately and fsyncs in the background.
	SyncInterval SyncPolicy = "interval"
)

// PolicyByName parses a sync policy from its flag spelling.
func PolicyByName(name string) (SyncPolicy, error) {
	switch SyncPolicy(strings.ToLower(name)) {
	case SyncAlways:
		return SyncAlways, nil
	case SyncGroup:
		return SyncGroup, nil
	case SyncInterval:
		return SyncInterval, nil
	}
	return "", fmt.Errorf("wal: unknown sync policy %q (want always|group|interval)", name)
}

// Options configures a WAL.
type Options struct {
	// MaxSegmentSize rotates the active segment once it would exceed
	// this many bytes. Default 4 MiB.
	MaxSegmentSize int64
	// Policy selects the sync policy. Default SyncGroup.
	Policy SyncPolicy
	// Trace, when non-nil, records every fsync as a span on this track:
	// "wal.fsync" with Arg = the number of appends the fsync made durable
	// (the group-commit batch size), plus "wal.rotate" for segment-seal
	// fsyncs. Nil disables at zero cost.
	Trace *trace.Track
	// FsyncDelay, when non-nil, is consulted before every data fsync and
	// the returned duration is slept first — the chaos plane's fsync-stall
	// windows plug in here. Nil disables at zero cost.
	FsyncDelay func() time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentSize <= 0 {
		o.MaxSegmentSize = 4 << 20
	}
	if o.Policy == "" {
		o.Policy = SyncGroup
	}
	return o
}

// syncInterval is the background fsync period under SyncInterval.
const syncInterval = 5 * time.Millisecond

// RecordType tags a WAL frame.
type RecordType uint8

const (
	// RecAppend carries a batch of message-log records.
	RecAppend RecordType = 1
	// RecTrim advances the prefix-trim frontier for a channel.
	RecTrim RecordType = 2
	// RecTrimSuffix drops acknowledged-but-rolled-back entries above Seq.
	RecTrimSuffix RecordType = 3
)

// Record is one logical WAL entry.
type Record struct {
	Type  RecordType
	Ch    uint64
	Seq   uint64
	Count uint32
	Data  []byte
}

// Stats counts WAL activity. All fields are cumulative.
type Stats struct {
	Appends         uint64
	Fsyncs          uint64
	BytesWritten    uint64
	SegmentsCreated uint64
	SegmentsDeleted uint64
	Recovered       uint64 // records replayed at Open
	TornBytes       uint64 // bytes dropped at the torn tail during Open
}

// ErrClosed is returned by Append after Close or CrashClose.
var ErrClosed = errors.New("wal: closed")

const (
	frameHeader = 8  // u32 body length + u32 CRC32C(body)
	bodyFixed   = 21 // type(1) + ch(8) + seq(8) + count(4)
	segSuffix   = ".wal"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type segment struct {
	index uint64
	path  string
	f     *os.File // nil once sealed
	size  int64
	// chMax records the highest data seq per channel in this segment;
	// the segment is deletable once the trim frontier covers all of
	// them. Control-only segments have an empty map and are deletable
	// whenever they are the oldest (see dropSegmentsLocked).
	chMax map[uint64]uint64
}

// flushBytes is the stage size at which an appender wakes the committer
// for a write nobody is waiting on. It keeps a barrier's flush short; the
// bound on the stage is MaxSegmentSize.
const flushBytes = 256 << 10

// WAL is a segmented write-ahead log. Safe for concurrent use.
type WAL struct {
	dir  string
	opts Options

	mu        sync.Mutex    // the stage and the sync state
	done      *sync.Cond    // committer progress: stage space, syncedLSN, syncErr (on mu)
	stage     []byte        // encoded frames the committer has not taken yet
	spare     []byte        // the other half of the double buffer
	lsn       atomic.Uint64 // appends so far; advanced under mu, read without
	wantSync  bool          // a waiter demands that the next pass fsyncs
	syncedLSN uint64
	syncErr   error // first write, rotate or fsync failure; latched
	closing   bool
	crashed   bool
	wake      chan struct{} // committer wake; one pending token is enough

	// The files belong to the committer; fmu guards what Trim shares.
	active    *segment
	nextIndex uint64
	fmu       sync.Mutex
	segs      []*segment // sealed, oldest first
	frontier  map[uint64]uint64

	wg sync.WaitGroup

	fsyncs     atomic.Uint64
	bytes      atomic.Uint64
	segCreated atomic.Uint64
	segDeleted atomic.Uint64
	recovered  uint64
	tornBytes  uint64
}

// Open opens (or creates) a WAL in dir and returns the records
// recovered from existing segments, in append order. Recovery stops at
// the first torn or corrupt frame; segment files beyond that point are
// removed so the on-disk state matches what was replayed. A fresh
// active segment is always created — sealed segments are never
// reopened for append.
func Open(dir string, opts Options) (*WAL, []Record, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	w := &WAL{
		dir:      dir,
		opts:     opts,
		frontier: make(map[uint64]uint64),
		wake:     make(chan struct{}, 1),
	}
	w.done = sync.NewCond(&w.mu)

	recs, err := w.recover()
	if err != nil {
		return nil, nil, err
	}
	if err := w.openSegment(); err != nil {
		return nil, nil, err
	}
	w.wg.Add(1)
	go w.committer()
	return w, recs, nil
}

func (w *WAL) recover() ([]Record, error) {
	names, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, err
	}
	type segFile struct {
		index uint64
		path  string
	}
	var files []segFile
	for _, de := range names {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue // not a segment file
		}
		files = append(files, segFile{index: idx, path: filepath.Join(w.dir, name)})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].index < files[j].index })

	var recs []Record
	torn := false
	for i, sf := range files {
		if torn {
			// A torn segment is only ever the last one written; any
			// files after it hold frames that were never acknowledged
			// in order. Drop them so disk matches the replayed state.
			os.Remove(sf.path)
			continue
		}
		seg, segRecs, tornHere, err := w.scanSegment(sf.index, sf.path)
		if err != nil {
			return nil, err
		}
		recs = append(recs, segRecs...)
		w.segs = append(w.segs, seg)
		torn = tornHere
		if tornHere {
			// Physically drop the torn tail so the segment scans clean
			// on the next recovery — otherwise records appended after
			// this recovery (which land in newer segments) would be
			// discarded as "past the tear" next time.
			if err := truncateSegment(sf.path, seg.size); err != nil {
				return nil, err
			}
		}
		w.nextIndex = sf.index + 1
		_ = i
	}
	for _, r := range recs {
		if r.Type == RecTrim && r.Seq > w.frontier[r.Ch] {
			w.frontier[r.Ch] = r.Seq
		}
	}
	w.recovered = uint64(len(recs))
	return recs, nil
}

func truncateSegment(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// scanSegment reads a segment and decodes its committed prefix. A
// frame is committed iff its length prefix fits the file and its
// CRC32C matches; the scan stops at the first violation (torn tail).
func (w *WAL) scanSegment(index uint64, path string) (*segment, []Record, bool, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false, err
	}
	seg := &segment{index: index, path: path, chMax: make(map[uint64]uint64)}
	var recs []Record
	off := 0
	torn := false
	for {
		if off+frameHeader > len(buf) {
			torn = off < len(buf)
			break
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		crc := binary.LittleEndian.Uint32(buf[off+4:])
		if n < bodyFixed || off+frameHeader+n > len(buf) {
			torn = true
			break
		}
		body := buf[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(body, castagnoli) != crc {
			torn = true
			break
		}
		typ := RecordType(body[0])
		if typ != RecAppend && typ != RecTrim && typ != RecTrimSuffix {
			torn = true
			break
		}
		r := Record{
			Type:  typ,
			Ch:    binary.LittleEndian.Uint64(body[1:]),
			Seq:   binary.LittleEndian.Uint64(body[9:]),
			Count: binary.LittleEndian.Uint32(body[17:]),
		}
		if n > bodyFixed {
			r.Data = body[bodyFixed:]
		}
		if r.Type == RecAppend {
			last := r.Seq + uint64(r.Count) - 1
			if r.Count == 0 {
				last = r.Seq
			}
			if last > seg.chMax[r.Ch] {
				seg.chMax[r.Ch] = last
			}
		}
		recs = append(recs, r)
		off += frameHeader + n
	}
	seg.size = int64(off)
	if torn {
		w.tornBytes += uint64(len(buf) - off)
	}
	return seg, recs, torn, nil
}

func (w *WAL) openSegment() error {
	idx := w.nextIndex
	w.nextIndex++
	path := filepath.Join(w.dir, fmt.Sprintf("%012d%s", idx, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	// Make the new file name durable so recovery sees the segment even
	// if we crash before its first fsync.
	w.syncDir()
	w.active = &segment{index: idx, path: path, f: f, chMax: make(map[uint64]uint64)}
	w.segCreated.Add(1)
	return nil
}

// stall sleeps through any configured chaos fsync delay before a data
// fsync, modelling a device or filesystem that has gone slow.
func (w *WAL) stall() {
	if f := w.opts.FsyncDelay; f != nil {
		if d := f(); d > 0 {
			time.Sleep(d)
		}
	}
}

func (w *WAL) syncDir() {
	d, err := os.Open(w.dir)
	if err != nil {
		return
	}
	if d.Sync() == nil {
		w.fsyncs.Add(1)
	}
	d.Close()
}

// Append stages r and, under SyncAlways and SyncGroup, returns once an
// fsync covers it. Under SyncInterval it returns at once.
func (w *WAL) Append(r Record) error {
	lsn, err := w.stageFrame(r)
	if err != nil || w.opts.Policy == SyncInterval {
		return err
	}
	return w.WaitSynced(lsn)
}

// AppendAsync stages r and returns its LSN without waiting for
// durability (SyncAlways still waits). Callers pair it with WaitSynced
// at their durability barrier — the pipelined shape of group commit,
// which keeps the write and the fsync off the append path.
func (w *WAL) AppendAsync(r Record) (uint64, error) {
	lsn, err := w.stageFrame(r)
	if err == nil && w.opts.Policy == SyncAlways {
		err = w.WaitSynced(lsn)
	}
	return lsn, err
}

// LastLSN returns the LSN of the most recently appended record.
func (w *WAL) LastLSN() uint64 { return w.lsn.Load() }

// WaitSynced blocks until the log is durable through lsn, demanding the
// fsync unless the policy's tick provides it. It fails with the latched
// error once the committer has failed, and with ErrClosed when a
// CrashClose got there first: nothing past the last fsync is durable.
func (w *WAL) WaitSynced(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.syncedLSN < lsn && w.opts.Policy != SyncInterval {
		// Set once: wantSync is cleared where the stage is swapped, so the
		// pass that clears it, or the one our token starts, covers lsn.
		w.wantSync = true
		w.kick()
	}
	for w.syncedLSN < lsn && w.syncErr == nil && !w.crashed {
		w.done.Wait()
	}
	if w.syncedLSN >= lsn {
		return nil
	}
	if w.syncErr != nil {
		return w.syncErr
	}
	return ErrClosed
}

// Trim records a prefix-trim for ch through seq and deletes any sealed
// segments wholly below the new frontier. The record is not waited for:
// losing it to a crash only retains data longer.
func (w *WAL) Trim(ch, seq uint64) error {
	if _, err := w.AppendAsync(Record{Type: RecTrim, Ch: ch, Seq: seq}); err != nil {
		return err
	}
	w.fmu.Lock()
	if seq > w.frontier[ch] {
		w.frontier[ch] = seq
	}
	w.dropSegmentsLocked()
	w.fmu.Unlock()
	return nil
}

// TrimSuffix records a suffix-trim (post-failure rollback of
// acknowledged-but-uncheckpointed entries above seq). The suffixed
// data always lives in the same or an older segment than this record,
// so oldest-first whole-segment deletion can never resurrect it.
func (w *WAL) TrimSuffix(ch, seq uint64) error {
	return w.Append(Record{Type: RecTrimSuffix, Ch: ch, Seq: seq})
}

// kick wakes the committer for one more pass. Called with mu held.
func (w *WAL) kick() {
	select {
	case w.wake <- struct{}{}:
	default: // a pass is already owed
	}
}

// stageFrame builds r's frame at the end of the stage and returns its
// LSN. It blocks only while the frame does not fit under the stage bound.
func (w *WAL) stageFrame(r Record) (uint64, error) {
	n := frameHeader + bodyFixed + len(r.Data)
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.stage) > 0 && int64(len(w.stage)+n) > w.opts.MaxSegmentSize && !w.closing && w.syncErr == nil {
		w.kick()
		w.done.Wait()
	}
	if w.closing {
		return 0, ErrClosed
	}
	if w.syncErr != nil {
		return 0, w.syncErr
	}
	at := len(w.stage)
	w.stage = slices.Grow(w.stage, n)[:at+n]
	// The header is filled after the body so the CRC covers a contiguous
	// slice.
	frame := w.stage[at:]
	body := frame[frameHeader:]
	body[0] = byte(r.Type)
	binary.LittleEndian.PutUint64(body[1:], r.Ch)
	binary.LittleEndian.PutUint64(body[9:], r.Seq)
	binary.LittleEndian.PutUint32(body[17:], r.Count)
	copy(body[bodyFixed:], r.Data)
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(body, castagnoli))
	if at < flushBytes && at+n >= flushBytes {
		w.kick()
	}
	w.bytes.Add(uint64(n))
	return w.lsn.Add(1), nil
}

// committer is the only goroutine that touches the files. Each pass
// takes whatever is staged, writes it, and fsyncs if a waiter, the
// interval tick or Close asked for it.
func (w *WAL) committer() {
	defer w.wg.Done()
	var tick <-chan time.Time
	if w.opts.Policy == SyncInterval {
		t := time.NewTicker(syncInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		ticked := false
		select {
		case <-w.wake:
		case <-tick:
			ticked = true
		}
		w.mu.Lock()
		if w.crashed {
			w.mu.Unlock()
			return
		}
		buf, target, closing, err := w.stage, w.lsn.Load(), w.closing, w.syncErr
		w.stage, w.spare = w.spare, nil
		unsynced := target - w.syncedLSN
		sync := (w.wantSync || ticked || closing) && unsynced > 0
		w.wantSync = false
		w.done.Broadcast() // the stage has room again
		w.mu.Unlock()

		if err == nil {
			err = w.flush(buf)
		}
		if err == nil && sync {
			ts := w.opts.Trace.Begin()
			err = w.syncActive()
			w.opts.Trace.Span("wal.fsync", 0, unsynced, ts)
		}

		w.mu.Lock()
		w.spare = buf[:0]
		if err != nil {
			w.syncErr = err
		} else if sync {
			w.syncedLSN = target
		}
		w.done.Broadcast()
		w.mu.Unlock()
		if closing {
			return
		}
	}
}

// flush writes one pass's frames with one write, split only where the
// next frame would overflow the active segment.
func (w *WAL) flush(buf []byte) error {
	start := 0
	for off := 0; off < len(buf); {
		body := buf[off+frameHeader:]
		n := frameHeader + int(binary.LittleEndian.Uint32(buf[off:]))
		if w.active.size > 0 && w.active.size+int64(n) > w.opts.MaxSegmentSize {
			if err := w.writeActive(buf[start:off]); err != nil {
				return err
			}
			if err := w.rotate(); err != nil {
				return err
			}
			start = off
		}
		if RecordType(body[0]) == RecAppend {
			ch, last := binary.LittleEndian.Uint64(body[1:]), binary.LittleEndian.Uint64(body[9:])
			if count := binary.LittleEndian.Uint32(body[17:]); count > 0 {
				last += uint64(count) - 1
			}
			if last > w.active.chMax[ch] {
				w.active.chMax[ch] = last
			}
		}
		w.active.size += int64(n)
		off += n
	}
	return w.writeActive(buf[start:])
}

func (w *WAL) writeActive(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	_, err := w.active.f.Write(p)
	return err
}

// syncActive fsyncs the active file. Records in sealed segments are
// already durable (rotation seals with its own fsync), so syncing only
// the active file is sufficient.
func (w *WAL) syncActive() error {
	w.stall()
	if err := w.active.f.Sync(); err != nil {
		return err
	}
	w.fsyncs.Add(1)
	return nil
}

// rotate seals the active segment (fsync + close) and opens a fresh
// one. The seal fsync preserves the invariant that every record outside
// the active file is already durable, and bounds what is written but
// unsynced to one segment.
func (w *WAL) rotate() error {
	s := w.active
	err := w.syncActive()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	if err != nil {
		return err
	}
	w.opts.Trace.Instant("wal.rotate", 0, s.index)
	w.fmu.Lock()
	w.segs = append(w.segs, s)
	w.dropSegmentsLocked()
	w.fmu.Unlock()
	return w.openSegment()
}

// dropSegmentsLocked deletes sealed segments oldest-first while the
// trim frontier covers every data record they hold. Deleting oldest
// first is what keeps control records safe: a TrimSuffix (or Trim)
// record only suppresses data in the same or older segments, so by the
// time its segment is deleted the data it suppressed is gone too.
func (w *WAL) dropSegmentsLocked() {
	for len(w.segs) > 0 {
		s := w.segs[0]
		deletable := true
		for ch, max := range s.chMax {
			if w.frontier[ch] < max {
				deletable = false
				break
			}
		}
		if !deletable {
			break
		}
		os.Remove(s.path)
		w.segs = w.segs[1:]
		w.segDeleted.Add(1)
	}
}

// Close writes and fsyncs what is staged and closes the log. Waiters
// are released once that final fsync lands.
func (w *WAL) Close() error { return w.stop(false) }

// CrashClose simulates a process crash: what is staged is dropped,
// nothing more is fsynced and pending waiters get ErrClosed. Used by
// chaos tests to exercise recovery against real on-disk state.
func (w *WAL) CrashClose() error { return w.stop(true) }

// stop ends the committer — after a final flushing pass unless crash —
// and closes the active file. Only the first call does anything.
func (w *WAL) stop(crash bool) error {
	w.mu.Lock()
	if w.closing {
		w.mu.Unlock()
		return nil
	}
	w.closing = true
	w.crashed = crash
	w.kick()
	w.done.Broadcast()
	w.mu.Unlock()
	w.wg.Wait()

	err := w.syncErr // the committer, its only writer, has exited
	if f := w.active.f; f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		w.active.f = nil
	}
	return err
}

// Stats returns cumulative counters. Safe to call concurrently.
func (w *WAL) Stats() Stats {
	return Stats{
		Appends:         w.lsn.Load(),
		Fsyncs:          w.fsyncs.Load(),
		BytesWritten:    w.bytes.Load(),
		SegmentsCreated: w.segCreated.Load(),
		SegmentsDeleted: w.segDeleted.Load(),
		Recovered:       w.recovered,
		TornBytes:       w.tornBytes,
	}
}

// Segments returns the number of segment files currently on disk
// (sealed + active). For tests and observability.
func (w *WAL) Segments() int {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	return len(w.segs) + 1
}
