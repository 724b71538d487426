package msglog

import (
	"sync/atomic"

	"checkmate/internal/wal"
)

// Backend is the seam between the engine and a message-log
// implementation. The in-memory Log is the default fast test path;
// DurableLog tees appends through a WAL before acknowledging them.
type Backend interface {
	Append(ch uint64, seq uint64, data []byte)
	AppendBatch(ch uint64, firstSeq uint64, count int, data []byte)
	Range(ch uint64, fromExcl, toIncl uint64) []Entry
	Trim(ch uint64, seq uint64)
	TrimSuffix(ch uint64, seq uint64)
	TrimSuffixAll(frontier map[uint64]uint64)
	Stats() Stats
}

var (
	_ Backend = (*Log)(nil)
	_ Backend = (*DurableLog)(nil)
)

// DurableLog is a message log whose appends also go to a write-ahead
// log, so in-flight channel state survives a process crash. Reads
// (Range) are served from the in-memory index, which is rebuilt from the
// WAL segments on restart.
//
// Under SyncAlways every append blocks on an fsync covering it — the
// honest per-commit cost model. Under group commit and interval sync the
// append path is pipelined: AppendBatch copies the frame into the WAL's
// in-memory stage and returns, the WAL's committer writes it later, and
// durability is enforced where it is actually needed — Barrier() blocks
// until everything appended so far is on disk, and the engine calls it
// before a checkpoint is reported durable. That barrier is what makes
// the pipelining safe: a message is either covered by the WAL's synced
// prefix (its sender's checkpoint waited for it) or upstream of the
// recovery line, in which case its sender re-produces it on replay and
// receiver-side dedup drops any duplicate. A crash therefore leaves a
// gap-free prefix of the appends that holds at least what a returned
// Barrier covered; frames past it may be gone, staged ones certainly.
type DurableLog struct {
	mem *Log
	w   *wal.WAL
	// syncAppends selects the blocking append path (SyncAlways).
	syncAppends bool
	// walErrs counts WAL failures: appends the WAL refused and barriers
	// that failed. A write or fsync error happens on the WAL's committer
	// and is latched there, so every later append and Barrier reports it
	// here. The in-memory log keeps working (the run degrades to
	// in-memory durability, and no further checkpoint passes its barrier)
	// rather than taking the data plane down mid-flush.
	walErrs atomic.Uint64
}

// OpenDurable opens (or recovers) a durable message log backed by WAL
// segments in dir. Recovery replays the surviving records in append
// order, which reproduces the exact in-memory state as of the last
// acknowledged write: appends rebuild entries, trims re-drop them.
func OpenDurable(dir string, opts wal.Options, s Slicer) (*DurableLog, error) {
	w, recs, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	mem := NewWithSlicer(s)
	for _, r := range recs {
		switch r.Type {
		case wal.RecAppend:
			mem.AppendBatch(r.Ch, r.Seq, int(r.Count), r.Data)
		case wal.RecTrim:
			mem.Trim(r.Ch, r.Seq)
		case wal.RecTrimSuffix:
			mem.TrimSuffix(r.Ch, r.Seq)
		}
	}
	return &DurableLog{mem: mem, w: w, syncAppends: opts.Policy == wal.SyncAlways}, nil
}

func (d *DurableLog) walAppend(r wal.Record) {
	if err := d.w.Append(r); err != nil {
		d.walErrs.Add(1)
	}
}

// walAppendAsync stages the frame without waiting for its write or fsync;
// the durability barrier is deferred to Barrier().
func (d *DurableLog) walAppendAsync(r wal.Record) {
	if _, err := d.w.AppendAsync(r); err != nil {
		d.walErrs.Add(1)
	}
}

// Append logs a single-record frame durably.
func (d *DurableLog) Append(ch uint64, seq uint64, data []byte) {
	d.AppendBatch(ch, seq, 1, data)
}

// AppendBatch hands the frame to the WAL and then to the in-memory
// index. SyncAlways blocks until an fsync covers the frame; group
// commit and interval sync return once the frame is staged and leave
// durability to the next Barrier(). The caller keeps ownership of
// data, same as Log.AppendBatch.
func (d *DurableLog) AppendBatch(ch uint64, firstSeq uint64, count int, data []byte) {
	r := wal.Record{Type: wal.RecAppend, Ch: ch, Seq: firstSeq, Count: uint32(count), Data: data}
	if d.syncAppends {
		d.walAppend(r)
	} else {
		d.walAppendAsync(r)
	}
	d.mem.AppendBatch(ch, firstSeq, count, data)
}

// LastLSN returns the WAL position of the most recent write; pass it
// to Barrier to wait for a specific prefix.
func (d *DurableLog) LastLSN() uint64 { return d.w.LastLSN() }

// Barrier blocks until the WAL is durable through lsn — the
// log-before-checkpoint barrier the pipelined append path relies on.
func (d *DurableLog) Barrier(lsn uint64) error {
	err := d.w.WaitSynced(lsn)
	if err != nil {
		d.walErrs.Add(1)
	}
	return err
}

// Range reads from the in-memory index.
func (d *DurableLog) Range(ch uint64, fromExcl, toIncl uint64) []Entry {
	return d.mem.Range(ch, fromExcl, toIncl)
}

// Trim advances the durable trim frontier (whole segments below it are
// deleted) and trims the in-memory index. It does not wait for the trim
// record to be durable: losing one to a crash is benign (the recovered
// log retains more than it needs), and the coordinator trims every
// channel in turn each time the recovery line advances.
func (d *DurableLog) Trim(ch uint64, seq uint64) {
	if err := d.w.Trim(ch, seq); err != nil {
		d.walErrs.Add(1)
	}
	d.mem.Trim(ch, seq)
}

// TrimSuffix durably records the post-recovery rollback of entries
// above seq. Unlike Trim, losing this record is NOT benign — a stale
// suffix replayed after a second crash would violate exactly-once — so
// it goes through the same acknowledged append path as data.
func (d *DurableLog) TrimSuffix(ch uint64, seq uint64) {
	d.walAppend(wal.Record{Type: wal.RecTrimSuffix, Ch: ch, Seq: seq})
	d.mem.TrimSuffix(ch, seq)
}

// TrimSuffixAll applies TrimSuffix to every channel using the frontier
// map; channels absent from the map are truncated entirely.
func (d *DurableLog) TrimSuffixAll(frontier map[uint64]uint64) {
	for _, ch := range d.mem.channelIDs() {
		d.TrimSuffix(ch, frontier[ch])
	}
}

// Stats reports the in-memory index size plus WAL error count.
func (d *DurableLog) Stats() Stats {
	s := d.mem.Stats()
	s.WALErrors = d.walErrs.Load()
	return s
}

// WALStats exposes the underlying WAL counters (fsyncs, bytes,
// segments) for the bench grid.
func (d *DurableLog) WALStats() wal.Stats { return d.w.Stats() }

// Close flushes and closes the WAL.
func (d *DurableLog) Close() error { return d.w.Close() }

// CrashClose closes the WAL without a final flush, simulating a
// process crash for chaos tests.
func (d *DurableLog) CrashClose() error { return d.w.CrashClose() }
