// Package msglog implements the durable in-flight message logging
// (upstream backup) that the uncoordinated and communication-induced
// checkpointing protocols require for exactly-once processing.
//
// Every data frame an operator instance sends is appended, keyed by its
// logical channel, together with the per-channel sequence range it covers —
// a single record or a whole batch envelope. After a failure, the recovery
// procedure replays from each channel's log the records that were sent
// before the sender's restored checkpoint but not yet reflected in the
// receiver's restored checkpoint — the in-flight channel state of the
// chosen recovery line. Replay ranges are record-granular even when frames
// are batched: a configured Slicer re-frames the partial overlap of a batch
// with the replay or trim boundary.
//
// Logs survive worker failures (they model state persisted outside the
// failing worker) and are trimmed once a prefix is subsumed by checkpoints
// on both ends of the channel.
package msglog

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Entry is one logged frame: the serialized wire envelope plus the
// per-channel sequence range it covers. Seq is the sequence number of the
// first record; Count the number of records (1 for unbatched frames), so
// the frame spans [Seq, Seq+Count-1].
type Entry struct {
	Seq   uint64
	Count int
	Data  []byte
}

// last reports the sequence number of the frame's final record.
func (e Entry) last() uint64 { return e.Seq + uint64(e.Count) - 1 }

// Slicer re-frames the records of a batched envelope whose sequence numbers
// fall in [fromSeq, toSeq] as a fresh envelope, returning it together with
// its record count (nil/0 when the ranges do not overlap). The engine
// injects its wire-format-aware implementation; a Log without a slicer only
// supports Count-1 appends.
type Slicer func(data []byte, fromSeq, toSeq uint64) ([]byte, int, error)

// channelLog is the log of a single channel. Entries are appended in
// sequence order; trimming removes a prefix.
type channelLog struct {
	mu      sync.Mutex
	entries []Entry
	bytes   uint64
	// arena is the chunk the next owning copies are cut from. Entries are
	// sub-slices of their chunk; nothing else refers to a chunk, so the GC
	// frees it when its last entry is trimmed.
	arena []byte
}

// Arena chunks start small, so that a channel carrying a few frames does
// not pin a full chunk, and double up to arenaChunk.
const (
	arenaChunk    = 256 << 10
	arenaChunkMin = 8 << 10
)

// own returns a copy of data that lives as long as its entry. Called
// with cl.mu held.
func (cl *channelLog) own(data []byte) []byte {
	if len(data) > cap(cl.arena)-len(cl.arena) {
		if len(data) > arenaChunk/4 {
			// Would waste most of a chunk: a copy of its own.
			cp := make([]byte, len(data))
			copy(cp, data)
			return cp
		}
		size := min(max(2*cap(cl.arena), arenaChunkMin, len(data)), arenaChunk)
		cl.arena = make([]byte, 0, size)
	}
	at := len(cl.arena)
	cl.arena = append(cl.arena, data...)
	// Capacity stops at the entry's end: a holder that appends to Data
	// reallocates instead of writing into the next entry.
	return cl.arena[at:len(cl.arena):len(cl.arena)]
}

// logShards stripes the channel→log map: every worker's sender goroutine
// appends to the log on every flush under UNC/CIC, and a single map mutex
// made those appends contend even though the per-channel logs underneath
// already had their own locks. Channel ids spread across shards via a
// Fibonacci hash, so appends from different workers (different channels)
// take disjoint shard locks.
const logShards = 32

// Log is a collection of per-channel message logs. Channel identifiers are
// opaque 64-bit keys chosen by the engine (they encode the edge and the
// endpoint instances).
type Log struct {
	shards [logShards]logShard
	slicer Slicer
	// slicerErrs counts frames whose re-framing failed (corrupt data).
	// Range degrades to returning the whole frame (over-replay, which
	// receivers deduplicate); TrimSuffix still drops the frame (a stale
	// suffix must never survive). Either way the incident is visible in
	// Stats instead of silent.
	slicerErrs atomic.Uint64
}

// logShard is one stripe of the channel map. The RWMutex guards only the
// map; entry mutation is guarded by each channelLog's own mutex.
type logShard struct {
	mu       sync.RWMutex
	channels map[uint64]*channelLog
}

// shardOf picks the stripe for a channel id.
func (l *Log) shardOf(ch uint64) *logShard {
	return &l.shards[(ch*0x9E3779B97F4A7C15)>>(64-5)]
}

// New returns an empty log that only accepts single-record appends.
func New() *Log {
	l := &Log{}
	for i := range l.shards {
		l.shards[i].channels = make(map[uint64]*channelLog)
	}
	return l
}

// NewWithSlicer returns an empty log that accepts batched appends,
// re-framing batches record-granularly at replay and trim boundaries.
func NewWithSlicer(s Slicer) *Log {
	l := New()
	l.slicer = s
	return l
}

func (l *Log) channel(ch uint64) *channelLog {
	s := l.shardOf(ch)
	s.mu.RLock()
	cl, ok := s.channels[ch]
	s.mu.RUnlock()
	if ok {
		return cl
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cl, ok = s.channels[ch]; ok {
		return cl
	}
	cl = &channelLog{}
	s.channels[ch] = cl
	return cl
}

// lookup returns the channel's log without creating it.
func (l *Log) lookup(ch uint64) (*channelLog, bool) {
	s := l.shardOf(ch)
	s.mu.RLock()
	cl, ok := s.channels[ch]
	s.mu.RUnlock()
	return cl, ok
}

// Append logs a single-record frame with sequence number seq on channel ch.
func (l *Log) Append(ch uint64, seq uint64, data []byte) {
	l.AppendBatch(ch, seq, 1, data)
}

// AppendBatch logs a frame covering records [firstSeq, firstSeq+count-1] on
// channel ch. Sequence ranges on a channel must be appended contiguously in
// strictly increasing order starting at 1. Batched appends (count > 1)
// require the log to have a Slicer, otherwise trim and replay boundaries
// could not be honored record-granularly.
//
// Ownership: AppendBatch takes an owning copy of data, cut from the
// channel's arena. The engine's wire frames are pooled and recycled
// (scribbled, under the poison debug mode) once delivered, while log
// entries must survive until trimmed — so the copy here is the log's side
// of the frame ownership rule, and the caller keeps ownership of data.
func (l *Log) AppendBatch(ch uint64, firstSeq uint64, count int, data []byte) {
	if count > 1 && l.slicer == nil {
		panic("msglog: batched append on a log without a slicer")
	}
	cl := l.channel(ch)
	cl.mu.Lock()
	cl.entries = append(cl.entries, Entry{Seq: firstSeq, Count: count, Data: cl.own(data)})
	cl.bytes += uint64(len(data))
	cl.mu.Unlock()
}

// Range returns the logged frames on channel ch covering sequence numbers
// in (fromExcl, toIncl]. Frames straddling a boundary are re-framed through
// the slicer so the returned entries cover exactly the requested records;
// records below the trimmed prefix are silently absent.
func (l *Log) Range(ch uint64, fromExcl, toIncl uint64) []Entry {
	cl, ok := l.lookup(ch)
	if !ok {
		return nil
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var out []Entry
	for _, e := range cl.entries {
		if e.last() <= fromExcl || e.Seq > toIncl {
			continue
		}
		if e.Seq > fromExcl && e.last() <= toIncl {
			out = append(out, e)
			continue
		}
		sliced, err := l.slice(e, fromExcl+1, toIncl)
		if err != nil {
			// Corrupt frame: deliver it whole rather than silently losing
			// its in-range records — over-replayed records are dropped by
			// the receiver's sequence dedup, lost ones would violate
			// exactly-once.
			l.slicerErrs.Add(1)
			out = append(out, e)
			continue
		}
		if sliced.Count > 0 {
			out = append(out, sliced)
		}
	}
	return out
}

// slice re-frames entry e to the records in [fromSeq, toSeq].
func (l *Log) slice(e Entry, fromSeq, toSeq uint64) (Entry, error) {
	if l.slicer == nil {
		return Entry{}, fmt.Errorf("msglog: cannot slice entry without a slicer")
	}
	data, count, err := l.slicer(e.Data, fromSeq, toSeq)
	if err != nil {
		return Entry{}, err
	}
	if count == 0 {
		return Entry{Count: 0}, nil
	}
	first := e.Seq
	if fromSeq > first {
		first = fromSeq
	}
	return Entry{Seq: first, Count: count, Data: data}, nil
}

// Trim discards all records on channel ch with sequence numbers <= seq.
// It is called when a checkpoint frontier makes the prefix unnecessary.
// A batch straddling the boundary is re-framed to its surviving suffix.
func (l *Log) Trim(ch uint64, seq uint64) {
	cl, ok := l.lookup(ch)
	if !ok {
		return
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	i := 0
	for i < len(cl.entries) && cl.entries[i].last() <= seq {
		cl.bytes -= uint64(len(cl.entries[i].Data))
		i++
	}
	if i == 0 && (len(cl.entries) == 0 || cl.entries[0].Seq > seq) {
		return
	}
	// Drop the prefix by re-slicing; the survivors are copied only when a
	// later append finds the backing array full and moves them to a new
	// one, which leaves the dead slots behind. Cleared, a dead slot no
	// longer holds its arena chunk.
	clear(cl.entries[:i])
	kept := cl.entries[i:]
	// Re-frame a batch straddling the trim point to its surviving suffix.
	// On a slicer error the whole frame is kept: over-retention only costs
	// log bytes, and replay overlap is deduplicated downstream.
	if len(kept) > 0 && kept[0].Seq <= seq {
		sliced, err := l.slice(kept[0], seq+1, kept[0].last())
		if err != nil {
			l.slicerErrs.Add(1)
		} else if sliced.Count > 0 {
			cl.bytes -= uint64(len(kept[0].Data))
			cl.bytes += uint64(len(sliced.Data))
			kept[0] = sliced
		}
	}
	cl.entries = kept
}

// TrimSuffix discards all records on channel ch with sequence numbers
// strictly greater than seq. It is called during recovery: records past the
// sender's restored checkpoint will be regenerated by reprocessing (possibly
// with different content), so the stale suffix must not survive. A batch
// straddling the boundary is re-framed to its surviving prefix.
func (l *Log) TrimSuffix(ch uint64, seq uint64) {
	cl, ok := l.lookup(ch)
	if !ok {
		return
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	keep := len(cl.entries)
	for keep > 0 && cl.entries[keep-1].Seq > seq {
		keep--
		cl.bytes -= uint64(len(cl.entries[keep].Data))
	}
	clear(cl.entries[keep:])
	cl.entries = cl.entries[:keep]
	if keep > 0 && cl.entries[keep-1].last() > seq {
		last := cl.entries[keep-1]
		cl.bytes -= uint64(len(last.Data))
		sliced, err := l.slice(last, last.Seq, seq)
		switch {
		case err == nil && sliced.Count > 0:
			cl.bytes += uint64(len(sliced.Data))
			cl.entries[keep-1] = sliced
		case err != nil:
			// Corrupt frame: a stale suffix must never survive recovery, so
			// the whole frame is dropped (losing its surviving prefix to
			// conservative re-delivery elsewhere) and the incident counted.
			l.slicerErrs.Add(1)
			cl.entries = cl.entries[:keep-1]
		default:
			cl.entries = cl.entries[:keep-1]
		}
	}
}

// channelIDs snapshots the ids of every channel with a log.
func (l *Log) channelIDs() []uint64 {
	var chs []uint64
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.RLock()
		for ch := range s.channels {
			chs = append(chs, ch)
		}
		s.mu.RUnlock()
	}
	return chs
}

// TrimSuffixAll applies TrimSuffix to every channel using the frontier map;
// channels absent from the map are truncated entirely (frontier 0).
func (l *Log) TrimSuffixAll(frontier map[uint64]uint64) {
	for _, ch := range l.channelIDs() {
		l.TrimSuffix(ch, frontier[ch])
	}
}

// Stats reports the aggregate size of the log.
type Stats struct {
	Channels int
	// Entries counts logged frames; Records counts the data records they
	// cover (equal unless frames are batched).
	Entries int
	Records int
	Bytes   uint64
	// SlicerErrors counts frames whose record-granular re-framing failed;
	// non-zero means corrupt logged data was handled conservatively.
	SlicerErrors uint64
	// WALErrors counts durable-backend write failures (always zero for
	// the in-memory log).
	WALErrors uint64
}

// Stats returns a snapshot of the log's aggregate size.
func (l *Log) Stats() Stats {
	var s Stats
	s.SlicerErrors = l.slicerErrs.Load()
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		s.Channels += len(sh.channels)
		for _, cl := range sh.channels {
			cl.mu.Lock()
			s.Entries += len(cl.entries)
			for _, e := range cl.entries {
				s.Records += e.Count
			}
			s.Bytes += cl.bytes
			cl.mu.Unlock()
		}
		sh.mu.RUnlock()
	}
	return s
}
