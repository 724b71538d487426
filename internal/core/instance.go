package core

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"checkmate/internal/dedup"
	"checkmate/internal/metrics"
	"checkmate/internal/recovery"
	"checkmate/internal/statestore"
	"checkmate/internal/trace"
	"checkmate/internal/wire"
)

// noWatermark is the watermark value before any event time was observed.
const noWatermark = math.MinInt64

// outChan is one outgoing channel of an instance (one target instance of
// one outgoing edge).
type outChan struct {
	key     uint64 // channelKey
	edge    int    // job edge index
	toGID   int
	toIdx   int // receiver instance index within its operator
	toQueue int // receiver's local queue index for this channel
}

// outEdge groups the outgoing channels of one edge.
type outEdge struct {
	edge    int
	part    Partitioning
	targets []int // indexes into instance.outChans
}

// outBuf accumulates the records of one outgoing channel between flushes:
// the vectorized-exchange output buffer. Records are staged as
// length-prefixed bodies; the shared batch header (and the per-batch
// protocol piggyback) is prepended at flush time.
type outBuf struct {
	recs     *wire.Encoder // length-prefixed record bodies
	count    int
	firstSeq uint64
	firstNS  int64 // virtual time the first buffered record arrived
}

// inChan is one incoming channel of an instance.
type inChan struct {
	key     uint64
	edge    int
	fromGID int
}

// instance is one parallel instance of an operator, executing as a single
// goroutine; checkpoint materialization and upload run on the hosting
// worker's uploader goroutine (see uploader.go).
type instance struct {
	eng *Engine
	w   *world
	gid int
	op  int
	idx int
	// worker is the cluster worker hosting this instance (from the
	// engine's placement topology).
	worker int
	spec   *OpSpec

	oper Operator // nil for sources

	in       *inbox // nil for sources
	inChans  []inChan
	outChans []outChan
	outEdges []outEdge

	// outBufs holds the per-channel output batches (one per outChans entry);
	// buffered is the total record count across them, so the hot path can
	// skip flush scans when nothing is pending.
	outBufs  []outBuf
	buffered int

	sentSeq []uint64 // per outChans entry
	recvSeq []uint64 // per inChans entry
	ckptSeq uint64
	offset  uint64 // source read position

	ctrl  Controller
	dedup *dedup.Set

	// kv is the engine-owned keyed state backend, non-nil iff the operator
	// implements KeyedStateUser. kvChain drives incremental (base+delta)
	// persistence of kv when Config.DeltaCheckpoints is set; chainKeys
	// tracks the object-store keys of the blobs the newest chain spans
	// (base first, newest last). chainBroken is set by an upload goroutine
	// when a chain blob was abandoned (retries exhausted): deltas on top of
	// it could never be rebuilt, so the next snapshot must start a fresh
	// full base.
	kv          *statestore.Store
	kvChain     *statestore.Chain
	chainKeys   []string
	chainBroken atomic.Bool
	// keyBuf holds the instance's object-store key prefix
	// ("ckpt/<job>/<op>/<idx>/") with spare capacity for the sequence
	// digits, so storeKey builds each key with a single string allocation.
	keyBuf []byte

	// COOR alignment state.
	aligning   bool
	alignRound uint64
	alignGot   []bool
	alignCount int

	// tt is the instance's lifecycle trace track (nil when tracing is
	// off — every recording call no-ops); alignT0 holds the run-clock
	// instant each input channel blocked for alignment, allocated only
	// when tracing.
	tt      *trace.Track
	alignT0 []int64

	// Current-event context for Context callbacks.
	curSchedNS int64
	curEventNS int64
	curUID     uint64
	emitK      int

	timerAt int64 // -1 when unset

	// Event-time watermark state (active when Config.WatermarkInterval is
	// set). chanWM is the last watermark per input channel; curWM is their
	// minimum; maxEventNS is the largest event time a source extracted;
	// lastWMSent/lastWMAt drive source watermark emission.
	chanWM     []int64
	curWM      int64
	maxEventNS int64
	lastWMSent int64
	lastWMAt   int64

	// stragglerNS, when positive, injects this much synthetic processing
	// delay per event (straggling-worker simulation).
	stragglerNS int64

	// ua tracks an unaligned checkpoint in progress (unaligned coordinated
	// protocol only).
	ua *uaPending
	// pendingInject holds captured channel state decoded during restore,
	// re-injected by the engine before the instance starts.
	pendingInject []capturedMsg

	// ctl receives coordinated-round initiation commands (sources only).
	ctl chan uint64

	// lagNS tracks how far behind its arrival schedule the source runs.
	lagNS atomic.Int64

	dead atomic.Bool

	enc      *wire.Encoder // reusable envelope encoder
	piggyEnc *wire.Encoder // reusable piggyback encoder
	cur      batchCursor   // reusable batch decode cursor
	cloneEnc *wire.Encoder // lazy scratch for cloning sink-retained values
	msgCount int
}

var _ Context = (*instance)(nil)

// Emit implements Context.
func (it *instance) Emit(key uint64, v wire.Value) { it.EmitTo(0, key, v) }

// EmitTo implements Context.
func (it *instance) EmitTo(outEdge int, key uint64, v wire.Value) {
	if outEdge < 0 || outEdge >= len(it.outEdges) {
		panic(fmt.Sprintf("core: %s[%d]: EmitTo(%d) with %d out edges", it.spec.Name, it.idx, outEdge, len(it.outEdges)))
	}
	uid := deriveUID(it.curUID, it.gid, it.emitK)
	it.emitK++
	it.send(outEdge, key, v, it.curSchedNS, it.curEventNS, uid)
}

// WatermarkNS implements Context.
func (it *instance) WatermarkNS() int64 { return it.curWM }

// KeyedState implements Context.
func (it *instance) KeyedState() *statestore.Store {
	if it.kv == nil {
		panic(fmt.Sprintf("core: %s[%d]: KeyedState called by an operator that does not implement KeyedStateUser", it.spec.Name, it.idx))
	}
	return it.kv
}

// Index implements Context.
func (it *instance) Index() int { return it.idx }

// Parallelism implements Context.
func (it *instance) Parallelism() int { return it.eng.par[it.op] }

// NowNS implements Context.
func (it *instance) NowNS() int64 { return it.eng.nowNS() }

// SetTimer implements Context.
func (it *instance) SetTimer(atNS int64) { it.timerAt = atNS }

// send routes one record over out edge oe.
func (it *instance) send(oe int, key uint64, v wire.Value, schedNS, eventNS int64, uid uint64) {
	edge := &it.outEdges[oe]
	switch edge.part {
	case Forward:
		it.sendTo(edge.targets[0], key, v, schedNS, eventNS, uid)
	case Hash:
		// Reduce in uint64 space: int(key)%n is negative for keys >= 2^63.
		it.sendTo(edge.targets[key%uint64(len(edge.targets))], key, v, schedNS, eventNS, uid)
	case Broadcast:
		for _, t := range edge.targets {
			it.sendTo(t, key, v, schedNS, eventNS, uid)
		}
	}
}

// sendTo stages one record into the output batch of outChans[t]. The batch
// is flushed — encoded as a single wire envelope sharing the routing header,
// logged as one frame when the protocol requires in-flight logging, and
// delivered under backpressure — when it reaches the configured record or
// byte bound; protocol events and the linger bound flush it earlier.
func (it *instance) sendTo(t int, key uint64, v wire.Value, schedNS, eventNS int64, uid uint64) {
	it.sentSeq[t]++
	b := &it.outBufs[t]
	if b.count == 0 {
		b.firstSeq = it.sentSeq[t]
		b.firstNS = it.eng.nowNS()
	}
	m := Message{
		Seq:     it.sentSeq[t],
		UID:     uid,
		Key:     key,
		SchedNS: schedNS,
		EventNS: eventNS,
		Value:   v,
	}
	encodeBatchRecord(b.recs, &m)
	b.count++
	it.buffered++
	batching := &it.eng.cfg.Batching
	switch {
	case b.count >= batching.MaxRecords:
		it.flushOut(t, metrics.FlushMaxRecords)
	case b.recs.Len() >= batching.MaxBytes:
		it.flushOut(t, metrics.FlushMaxBytes)
	}
}

// flushOut encodes the pending batch of outChans[t] into one wire envelope
// and delivers it. The per-batch protocol piggyback is attached here (once
// per batch, not once per record). Blocks under backpressure.
func (it *instance) flushOut(t int, reason metrics.FlushReason) {
	b := &it.outBufs[t]
	if b.count == 0 {
		return
	}
	oc := &it.outChans[t]
	hdr := batchHeader{Edge: oc.edge, FromIdx: it.idx, ToIdx: oc.toIdx, FirstSeq: b.firstSeq, Count: b.count}
	if it.ctrl != nil {
		it.piggyEnc.Reset()
		it.ctrl.OnSend(oc.toGID, it.piggyEnc)
		if it.piggyEnc.Len() > 0 {
			hdr.Piggyback = it.piggyEnc.Bytes()
		}
	}
	// Assemble the envelope directly into a pooled frame: one copy of the
	// record section, no allocation in steady state. Ownership transfers to
	// the receiving inbox with push; the receiver recycles after delivery.
	it.enc.ResetTo(getFrame(batchHeaderMax + len(hdr.Piggyback) + b.recs.Len()))
	headerB, protoB := encodeBatchHeader(it.enc, &hdr)
	payloadB := headerB + b.recs.Len()
	it.enc.Raw(b.recs.Bytes())
	data := it.enc.Take()
	count := b.count
	b.recs.Reset()
	b.count = 0
	it.buffered -= count

	rec := it.eng.cfg.Recorder
	rec.AddPayloadBytes(payloadB)
	rec.AddProtocolBytes(protoB)
	rec.AddDataMessages(count)
	rec.AddBatchFlush(count, reason)
	if it.eng.logging {
		// The message log outlives delivery: it takes an owning copy.
		it.eng.log.AppendBatch(oc.key, hdr.FirstSeq, count, data)
	}
	target := it.w.instances[oc.toGID]
	it.eng.netWork(data)
	if d := it.eng.cfg.Chaos.ExchangeDelay(); d > 0 {
		// Chaos-plane network shaping: the sender stalls before the
		// handoff, modelling per-batch link delay/jitter. Applied to data
		// envelopes only — markers and control flow ride the same channels
		// via these batches, so protocol ordering is untouched.
		time.Sleep(d)
	}
	if !target.in.push(oc.toQueue, data, count) {
		putFrame(data) // inbox closed: ownership never transferred
	}
}

// flushAllOut flushes every non-empty output batch.
func (it *instance) flushAllOut(reason metrics.FlushReason) {
	if it.buffered == 0 {
		return
	}
	for t := range it.outBufs {
		it.flushOut(t, reason)
	}
}

// flushLingering flushes output batches whose first record has been waiting
// longer than the linger bound.
func (it *instance) flushLingering() {
	if it.buffered == 0 {
		return
	}
	now := it.eng.nowNS()
	for t := range it.outBufs {
		b := &it.outBufs[t]
		if b.count > 0 && now-b.firstNS >= it.eng.lingerNS {
			it.flushOut(t, metrics.FlushLinger)
		}
	}
}

// sendMarker delivers a checkpoint marker on every outgoing channel, first
// flushing pending output batches so the marker never overtakes records
// that logically precede it — alignment semantics are identical at every
// batch size. Under the unaligned protocol markers overtake queued data
// (front insertion); aligned markers queue in FIFO order and may block
// under backpressure — exactly the failure mode the paper attributes to
// the aligned protocol.
func (it *instance) sendMarker(round uint64) {
	ts := it.tt.Begin()
	it.flushAllOut(metrics.FlushControl)
	rec := it.eng.cfg.Recorder
	for i := range it.outChans {
		oc := &it.outChans[i]
		m := Message{Kind: msgMarker, Edge: oc.edge, FromIdx: it.idx, ToIdx: oc.toIdx, Round: round}
		it.enc.ResetTo(getFrame(64))
		_, protoB := encodeMessage(it.enc, &m)
		data := it.enc.Take()
		rec.AddProtocolBytes(protoB)
		rec.IncMarkerMessages()
		target := it.w.instances[oc.toGID].in
		delivered := false
		if it.eng.unaligned {
			delivered = target.pushFront(oc.toQueue, data, 0)
		} else {
			delivered = target.push(oc.toQueue, data, 0)
		}
		if !delivered {
			putFrame(data)
		}
	}
	it.tt.Span("ckpt.marker", round, uint64(len(it.outChans)), ts)
}

// sendWatermark forwards a watermark on every outgoing channel, flushing
// pending batches first so the watermark never overtakes the records whose
// event times it promises are complete. Watermarks are control messages:
// never logged, regenerated after recovery, counted as protocol bytes.
func (it *instance) sendWatermark(wm int64) {
	it.flushAllOut(metrics.FlushControl)
	rec := it.eng.cfg.Recorder
	for i := range it.outChans {
		oc := &it.outChans[i]
		m := Message{Kind: msgWatermark, Edge: oc.edge, FromIdx: it.idx, ToIdx: oc.toIdx, Watermark: wm}
		it.enc.ResetTo(getFrame(64))
		_, protoB := encodeMessage(it.enc, &m)
		data := it.enc.Take()
		rec.AddProtocolBytes(protoB)
		rec.IncWatermarkMessages()
		if !it.w.instances[oc.toGID].in.push(oc.toQueue, data, 0) {
			putFrame(data)
		}
	}
}

// maybeEmitSourceWM emits a source watermark when the emission interval
// elapsed and event time progressed.
func (it *instance) maybeEmitSourceWM() {
	interval := it.eng.cfg.WatermarkInterval
	if interval <= 0 || it.maxEventNS == noWatermark {
		return
	}
	now := it.eng.nowNS()
	if now-it.lastWMAt < interval.Nanoseconds() {
		return
	}
	it.lastWMAt = now
	wm := it.maxEventNS - it.eng.cfg.WatermarkLag.Nanoseconds()
	if wm > it.lastWMSent {
		it.lastWMSent = wm
		it.sendWatermark(wm)
	}
}

// handleWatermark merges an incoming watermark into the per-channel state
// and, when the combined (minimum) watermark advances, notifies the
// operator and forwards downstream.
func (it *instance) handleWatermark(m Message, ch int) {
	if m.Watermark <= it.chanWM[ch] {
		return
	}
	it.chanWM[ch] = m.Watermark
	min := it.chanWM[0]
	for _, wm := range it.chanWM[1:] {
		if wm < min {
			min = wm
		}
	}
	if min <= it.curWM {
		return
	}
	it.curWM = min
	if wh, ok := it.oper.(WatermarkHandler); ok {
		// Deterministic emission context: UIDs derive from the watermark
		// value, so a window re-fired after recovery regenerates identical
		// result identities.
		it.curSchedNS = it.eng.nowNS()
		it.curEventNS = min
		it.curUID = deriveUID(uint64(min), it.gid, -2)
		it.emitK = 0
		wh.OnWatermark(it, min)
	}
	it.sendWatermark(min)
}

// capturedMsg is one in-flight envelope persisted as channel state by an
// unaligned checkpoint. count is the number of data records the envelope
// carries (captures are re-framed to single records, so it is 1 there; on
// restore it is re-derived from the envelope).
type capturedMsg struct {
	queue int
	count int
	data  []byte
}

// uaPending is an unaligned checkpoint in progress: the state snapshot was
// captured at the first marker (job holds the frozen keyed view and the
// encoded scalars); in-flight (pre-barrier) messages are captured as they
// are processed until every channel's barrier arrived and its overtaken
// prefix drained, then the job is handed to the uploader.
type uaPending struct {
	round      uint64
	job        *uploadJob
	markerSeen []bool
	// counted is the remaining pre-barrier messages per channel: -1 until
	// the channel's marker arrives (capture everything), then the number
	// of overtaken messages still queued.
	counted  []int
	captures []capturedMsg
	seen     int
}

// drainMax bounds the envelopes popMany hands the consumer per inbox lock
// acquisition. Large enough to amortize the lock and wakeup, small enough
// that control frames and timers stay responsive.
const drainMax = 32

// run is the main loop of a non-source instance.
func (it *instance) run() {
	defer it.w.wg.Done()
	timer := time.NewTimer(it.eng.cfg.PollInterval)
	defer timer.Stop()
	drain := make([]qEntry, 0, drainMax)
	for {
		for budget := 256; budget > 0; {
			if it.stopped() {
				return
			}
			var ch int
			drain, ch = it.in.popMany(drain[:0])
			if ch < 0 {
				break
			}
			budget -= len(drain)
			for i := range drain {
				it.handle(drain[i].data, ch)
				// The receiver owns delivered frames; everything that
				// outlives handle (msglog, UA captures, retained values)
				// copied already.
				putFrame(drain[i].data)
				drain[i] = qEntry{}
			}
		}
		if it.stopped() {
			return
		}
		it.poll()
		// Wait for work, a timer, or shutdown.
		wait := it.eng.cfg.PollInterval
		if it.timerAt >= 0 {
			if d := time.Duration(it.timerAt - it.eng.nowNS()); d < wait {
				wait = d
			}
		}
		if it.in.pending() > 0 {
			continue
		}
		// Going idle: no point holding half-full batches for the linger
		// bound, downstream would only wait.
		it.flushAllOut(metrics.FlushLinger)
		if wait < 0 {
			wait = 0
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-it.in.notify:
		case <-timer.C:
		case <-it.w.stopCh:
			return
		}
	}
}

func (it *instance) stopped() bool {
	if it.dead.Load() {
		return true
	}
	select {
	case <-it.w.stopCh:
		return true
	default:
		return false
	}
}

// poll fires due timers, source watermarks, lingering output batches, and
// protocol-initiated local checkpoints.
func (it *instance) poll() {
	it.flushLingering()
	if it.spec.Source != nil {
		it.maybeEmitSourceWM()
	}
	now := it.eng.nowNS()
	if it.timerAt >= 0 && now >= it.timerAt {
		it.timerAt = -1
		if th, ok := it.oper.(TimerHandler); ok {
			it.curSchedNS = now
			it.curUID = deriveUID(uint64(now), it.gid, -1)
			it.emitK = 0
			th.OnTimer(it, now)
		}
	}
	if it.ctrl != nil && it.ctrl.ShouldCheckpoint(time.Duration(now)) {
		it.takeCheckpoint(0, false)
	}
}

// handle processes one envelope from local input channel ch: a batch frame
// or a control message. Data records are always framed as msgBatch (a
// batch of one at MaxRecords=1) — by sendTo, by unaligned captures, and by
// log replay — so a bare msgData frame here is corrupt input.
func (it *instance) handle(data []byte, ch int) {
	it.eng.netWork(data)
	if len(data) > 0 && data[0] == msgBatch {
		it.handleBatch(data, ch)
		return
	}
	m, err := decodeMessage(data)
	if err != nil {
		it.eng.cfg.Recorder.Note("instance %s[%d]: corrupt message: %v", it.spec.Name, it.idx, err)
		return
	}
	switch m.Kind {
	case msgMarker:
		it.handleMarker(m, ch)
	case msgWatermark:
		it.handleWatermark(m, ch)
	default:
		it.eng.cfg.Recorder.Note("instance %s[%d]: unexpected non-batch data frame (kind %d)", it.spec.Name, it.idx, m.Kind)
	}
}

// handleBatch iterates a batch envelope record by record. The protocol
// piggyback is applied once per batch (before any of its records are
// processed), sequence deduplication, UID deduplication and unaligned
// capture stay record-granular.
func (it *instance) handleBatch(data []byte, ch int) {
	cur := &it.cur
	if err := cur.init(data); err != nil {
		it.eng.cfg.Recorder.Note("instance %s[%d]: corrupt batch: %v", it.spec.Name, it.idx, err)
		return
	}
	rec := it.eng.cfg.Recorder
	hdr := &cur.hdr
	if it.ctrl != nil && !(it.eng.exactOnce && hdr.lastSeq() <= it.recvSeq[ch]) {
		// A fully-duplicate batch (replayed overlap) is dropped below
		// without touching the controller, mirroring the single-record
		// path's drop-before-OnReceive order.
		if it.ctrl.OnReceive(it.inChans[ch].fromGID, hdr.Piggyback) {
			it.takeCheckpoint(0, true)
		}
	}
	// Records framed in one envelope arrived at the same instant: read the
	// clock once per batch, not once per record.
	now := it.eng.nowNS()
	var m Message
	for {
		body, ok := cur.next(&m)
		if !ok {
			if err := cur.err(); err != nil {
				rec.Note("instance %s[%d]: corrupt batch record: %v", it.spec.Name, it.idx, err)
			}
			return
		}
		if it.ua != nil {
			it.captureBatchRecord(ch, hdr, m.Seq, body)
		}
		if it.eng.exactOnce && m.Seq <= it.recvSeq[ch] {
			rec.IncDupDropped()
			continue
		}
		if m.Seq > it.recvSeq[ch] {
			it.recvSeq[ch] = m.Seq
		}
		it.processRecord(&m, now)
	}
}

// processRecord runs the protocol-independent tail of record delivery: UID
// deduplication, sink accounting, straggler simulation and the operator
// callback. nowNS is the delivery time of the enclosing envelope.
func (it *instance) processRecord(m *Message, nowNS int64) {
	rec := it.eng.cfg.Recorder
	if it.dedup != nil {
		if it.dedup.Check(m.UID) {
			rec.IncDupDropped()
			return
		}
	}
	if it.spec.Sink {
		rec.RecordSinkLatencySince(time.Duration(nowNS), time.Duration(nowNS-m.SchedNS))
		if it.eng.output.enabled() {
			// The collector retains the value past delivery, but delivered
			// values are borrowed: the reusing cursor overwrites Reusable
			// ones on the next record, and any decoder using StringRef
			// aliases the pooled frame, which is recycled after handle. So
			// the retention boundary clones unconditionally — an encode+
			// decode round trip per retained record, paid only when output
			// collection is on (never on the drain benchmark path).
			val := m.Value
			if val != nil {
				if it.cloneEnc == nil {
					it.cloneEnc = wire.NewEncoder(nil)
				}
				if cp, err := wire.CloneValue(val, it.cloneEnc); err == nil {
					val = cp
				} else {
					rec.Note("instance %s[%d]: clone sink value: %v", it.spec.Name, it.idx, err)
				}
			}
			it.eng.output.add(OutputRecord{
				Sink:    it.gid,
				Epoch:   it.ckptSeq + 1,
				Key:     m.Key,
				Value:   val,
				UID:     m.UID,
				SchedNS: m.SchedNS,
				EmitNS:  nowNS,
			})
		}
	}
	if it.stragglerNS > 0 {
		spinUntil := time.Now().Add(time.Duration(it.stragglerNS))
		for time.Now().Before(spinUntil) {
			// Busy-wait: a straggler is slow, not idle — it holds its CPU,
			// exactly like an overloaded worker.
		}
	}
	it.curSchedNS = m.SchedNS
	it.curEventNS = m.EventNS
	it.curUID = m.UID
	it.emitK = 0
	it.oper.OnEvent(it, Event{Key: m.Key, Value: m.Value, SchedNS: m.SchedNS, EventNS: m.EventNS, UID: m.UID, Edge: m.Edge})
	it.msgCount++
	if it.msgCount%64 == 0 {
		it.poll()
	}
}

// handleMarker implements the alignment phase of the coordinated protocol,
// or the capture phase of its unaligned variant.
func (it *instance) handleMarker(m Message, ch int) {
	if it.eng.unaligned {
		it.handleUnalignedMarker(m, ch)
		return
	}
	if !it.aligning {
		it.aligning = true
		it.alignRound = m.Round
		for i := range it.alignGot {
			it.alignGot[i] = false
		}
		it.alignCount = 0
	}
	if m.Round != it.alignRound {
		it.eng.cfg.Recorder.Note("instance %s[%d]: marker round %d during alignment of %d", it.spec.Name, it.idx, m.Round, it.alignRound)
		return
	}
	if it.alignGot[ch] {
		return
	}
	it.alignGot[ch] = true
	it.alignCount++
	if it.alignCount < len(it.inChans) {
		// Block the channel until all markers of this round arrived.
		if it.tt != nil {
			it.alignT0[ch] = it.tt.Begin()
		}
		it.in.setBlocked(ch, true)
		return
	}
	// All markers received: snapshot, forward markers, unblock. The
	// per-channel alignment waits all end here, so the spans nest (the
	// earliest-blocked channel's wait contains the later ones).
	if it.tt != nil {
		end := it.tt.Begin()
		for i := range it.alignGot {
			if it.alignGot[i] && i != ch {
				it.tt.SpanAt("ckpt.align", it.alignRound, uint64(i), it.alignT0[i], end)
			}
		}
	}
	it.takeCheckpoint(it.alignRound, false)
	it.sendMarker(it.alignRound)
	it.in.unblockAll()
	it.aligning = false
}

// storeKey builds the object-store key of the checkpoint at it.ckptSeq
// ("ckpt/<job>/<op>/<idx>/<seq>") by appending the sequence digits to the
// precomputed prefix in keyBuf: a single string allocation per call, on the
// synchronous snapshot path.
func (it *instance) storeKey() string {
	b := strconv.AppendUint(it.keyBuf, it.ckptSeq, 10)
	key := string(b)
	// AppendUint may have grown the buffer past the prefix capacity; keep
	// the grown buffer (still prefix-only in length) for the next call.
	it.keyBuf = b[:len(it.keyBuf)]
	return key
}

// snapshotState runs the synchronous phase of a checkpoint: it freezes the
// instance state — scalars, dedup, controller and operator state are
// encoded immediately (they are small), the keyed backend is frozen as a
// copy-on-write capture in O(dirty-set)/O(live-set) time without
// serialization — advances the checkpoint sequence, notifies the
// controller, and builds the checkpoint metadata. The caller appends the
// channel-state section to job.state and enqueues the job; serialization
// of the keyed segment, blob assembly, compression and upload all happen
// on the worker's uploader goroutine.
//
// Blob layout (v2, unchanged): a length-prefixed keyed-state segment first
// (empty for operators without a backend; a statestore full or delta
// snapshot otherwise — the prefix lets chain restore extract the segment
// from any blob without decoding the rest), then the instance scalars,
// then the captured channel state.
func (it *instance) snapshotState(round uint64, forced bool) *uploadJob {
	// Flush pending output batches first: the snapshot's sent frontier must
	// match what actually reached the wire and the in-flight log, or the
	// recovery line would compute replay ranges covering records that were
	// never logged.
	it.flushAllOut(metrics.FlushControl)
	it.ckptSeq++
	storeKey := it.storeKey()
	job := &uploadJob{it: it}
	if it.eng.dlog != nil {
		// Log-before-checkpoint barrier anchor: the flush above already
		// wrote every append this checkpoint's sent frontier covers, so
		// the current WAL position bounds them all. The uploader waits
		// for the WAL to sync past it before the checkpoint is reported.
		job.walLSN = it.eng.dlog.LastLSN()
	}
	enc := wire.NewEncoder(make([]byte, 0, 1024))
	job.state = enc
	switch {
	case it.kv == nil:
		it.chainKeys = append(it.chainKeys[:0], storeKey)
	case it.kvChain != nil:
		if it.chainBroken.Swap(false) {
			it.kvChain.Reset()
			it.chainKeys = it.chainKeys[:0]
		}
		var full bool
		job.capture, full = it.kvChain.CaptureCheckpoint(it.kv)
		if full {
			it.chainKeys = it.chainKeys[:0]
		}
		it.chainKeys = append(it.chainKeys, storeKey)
		job.chainLen = len(it.chainKeys)
	default:
		job.capture = it.kv.CaptureFull()
		it.chainKeys = append(it.chainKeys[:0], storeKey)
		job.chainLen = 1
	}
	rec := it.eng.cfg.Recorder
	enc.Uvarint(it.ckptSeq)
	enc.UvarintSlice(it.sentSeq)
	enc.UvarintSlice(it.recvSeq)
	enc.Uvarint(it.offset)
	enc.Varint(it.maxEventNS)
	enc.Varint(it.curWM)
	enc.Uvarint(uint64(len(it.chanWM)))
	for _, wm := range it.chanWM {
		enc.Varint(wm)
	}
	if it.dedup != nil {
		enc.Bool(true)
		it.dedup.Snapshot(enc)
	} else {
		enc.Bool(false)
	}
	if it.ctrl != nil {
		enc.Bool(true)
		it.ctrl.Snapshot(enc)
	} else {
		enc.Bool(false)
	}
	if it.oper != nil {
		enc.Bool(true)
		it.oper.Snapshot(enc)
	} else {
		enc.Bool(false)
	}

	meta := recovery.Meta{
		Ref:       recovery.CkptRef{Instance: it.gid, Seq: it.ckptSeq},
		SentUpTo:  make(map[uint64]uint64, len(it.outChans)),
		RecvUpTo:  make(map[uint64]uint64, len(it.inChans)),
		StoreKeys: append([]string(nil), it.chainKeys...),
		Round:     round,
		Forced:    forced,
		AtNS:      it.eng.nowNS(),
	}
	for i := range it.outChans {
		meta.SentUpTo[it.outChans[i].key] = it.sentSeq[i]
	}
	for i := range it.inChans {
		meta.RecvUpTo[it.inChans[i].key] = it.recvSeq[i]
	}
	if forced {
		rec.IncForcedCheckpoints()
	} else if round == 0 {
		rec.IncLocalCheckpoints()
	}
	if it.ctrl != nil {
		it.ctrl.OnCheckpoint(forced)
	}
	job.meta = meta
	return job
}

// abandonChainBlob records that a checkpoint blob was dropped without
// becoming durable. For self-contained checkpoints that is harmless (the
// checkpoint simply never joins a recovery line), but a chain segment
// under later deltas would leave them unrecoverable — so the next keyed
// snapshot is forced to start a fresh full base. Called from upload
// goroutines; snapshotState consumes the flag on the instance goroutine.
func (it *instance) abandonChainBlob() {
	if it.kvChain != nil {
		it.chainBroken.Store(true)
	}
}

// takeCheckpoint captures the instance state synchronously — the (now
// O(dirty-set)) processing stall the paper measures — and hands
// materialization and upload to the worker's uploader. round is non-zero
// for coordinated checkpoints; forced marks CIC forced ones.
func (it *instance) takeCheckpoint(round uint64, forced bool) {
	if round == 0 && it.eng.degraded.Load() {
		// Degraded mode suspends local (UNC/CIC) checkpoint triggers: the
		// store is out, so a capture could only be shed by the uploader.
		// Marker-driven coordinated checkpoints (round > 0) still run —
		// round initiation is already gated, and a marker in flight from
		// before the outage must complete its alignment protocol.
		return
	}
	ts := it.tt.Begin()
	t0 := time.Now()
	job := it.snapshotState(round, forced)
	// Aligned and local checkpoints carry no channel state.
	job.state.Uvarint(0)
	job.syncDur = time.Since(t0)
	it.tt.Span("ckpt.capture", round, job.meta.Ref.Seq, ts)
	it.eng.cfg.Recorder.RecordSyncPause(job.syncDur)
	it.enqueueUpload(job)
}

// handleUnalignedMarker implements the unaligned coordinated variant: the
// first marker of a round triggers an immediate snapshot and immediate
// marker forwarding (no blocking); pre-barrier in-flight messages are then
// captured into the checkpoint as channel state while processing continues.
func (it *instance) handleUnalignedMarker(m Message, ch int) {
	if it.ua == nil {
		ts := it.tt.Begin()
		t0 := time.Now()
		job := it.snapshotState(m.Round, false)
		job.syncDur = time.Since(t0)
		it.tt.Span("ckpt.capture", m.Round, job.meta.Ref.Seq, ts)
		it.eng.cfg.Recorder.RecordSyncPause(job.syncDur)
		it.ua = &uaPending{
			round:      m.Round,
			job:        job,
			markerSeen: make([]bool, len(it.inChans)),
			counted:    make([]int, len(it.inChans)),
			seen:       0,
		}
		for i := range it.ua.counted {
			it.ua.counted[i] = -1
		}
		it.sendMarker(m.Round)
	}
	if m.Round != it.ua.round {
		it.eng.cfg.Recorder.Note("instance %s[%d]: unaligned marker round %d during round %d", it.spec.Name, it.idx, m.Round, it.ua.round)
		return
	}
	if !it.ua.markerSeen[ch] {
		it.ua.markerSeen[ch] = true
		it.ua.seen++
		// Messages the marker overtook are pre-barrier: capture that many
		// more from this channel.
		it.ua.counted[ch] = it.in.takeMarkCount(ch)
	}
	it.maybeFinalizeUnaligned()
}

// captureBatchRecord records one pre-barrier record of a batch as channel
// state, re-framed as a count-1 envelope so the overtaken-record budget of
// the channel (which is record-granular) drains exactly — a marker can
// overtake part of a queued batch and the capture stops mid-batch.
func (it *instance) captureBatchRecord(ch int, hdr *batchHeader, seq uint64, body []byte) {
	ua := it.ua
	if ua == nil {
		return
	}
	switch {
	case ua.counted[ch] < 0: // marker not yet arrived: everything is pre-barrier
		ua.captures = append(ua.captures, capturedMsg{queue: ch, count: 1, data: encodeSingleRecordEnvelope(hdr, seq, body)})
	case ua.counted[ch] > 0:
		ua.captures = append(ua.captures, capturedMsg{queue: ch, count: 1, data: encodeSingleRecordEnvelope(hdr, seq, body)})
		ua.counted[ch]--
		it.maybeFinalizeUnaligned()
	}
}

// maybeFinalizeUnaligned completes the unaligned checkpoint once every
// barrier arrived and all overtaken prefixes drained.
func (it *instance) maybeFinalizeUnaligned() {
	ua := it.ua
	if ua == nil || ua.seen < len(it.inChans) {
		return
	}
	for _, c := range ua.counted {
		if c != 0 {
			return
		}
	}
	// Append the channel-state section to the job's state encoder and hand
	// the whole checkpoint to the uploader.
	enc := ua.job.state
	enc.Uvarint(uint64(len(ua.captures)))
	for _, c := range ua.captures {
		enc.Uvarint(uint64(c.queue))
		enc.Bytes2(c.data)
	}
	it.enqueueUpload(ua.job)
	it.ua = nil
}

// restore rebuilds instance state from a checkpoint's blob chain (oldest
// first; a self-contained checkpoint is a chain of one). Instance scalars,
// operator state and channel captures come from the newest blob alone; the
// keyed backend is rebuilt by composing the keyed segments of every blob —
// base snapshot first, then each delta in order, with statestore rejecting
// any out-of-order or missing link.
func (it *instance) restore(blobs [][]byte) error {
	if len(blobs) == 0 {
		return fmt.Errorf("core: restore %s[%d]: empty blob chain", it.spec.Name, it.idx)
	}
	dec := wire.NewDecoder(blobs[len(blobs)-1])
	lastSeg := dec.Bytes()
	if dec.Err() != nil {
		return fmt.Errorf("core: restore %s[%d]: keyed segment: %w", it.spec.Name, it.idx, dec.Err())
	}
	switch {
	case it.kv == nil:
		if len(lastSeg) > 0 || len(blobs) > 1 {
			return fmt.Errorf("core: restore %s[%d]: checkpoint has keyed state but the operator has no backend", it.spec.Name, it.idx)
		}
	default:
		if len(lastSeg) == 0 {
			return fmt.Errorf("core: restore %s[%d]: operator uses the keyed backend but the checkpoint has no keyed segment", it.spec.Name, it.idx)
		}
		segments := make([][]byte, 0, len(blobs))
		for i, b := range blobs[:len(blobs)-1] {
			d := wire.NewDecoder(b)
			seg := d.Bytes()
			if d.Err() != nil || len(seg) == 0 {
				return fmt.Errorf("core: restore %s[%d]: chain blob %d has no keyed segment", it.spec.Name, it.idx, i)
			}
			segments = append(segments, seg)
		}
		segments = append(segments, lastSeg)
		if err := statestore.RebuildInto(it.kv, segments); err != nil {
			return fmt.Errorf("core: restore %s[%d] keyed state: %w", it.spec.Name, it.idx, err)
		}
	}
	it.ckptSeq = dec.Uvarint()
	sent := dec.UvarintSlice()
	recv := dec.UvarintSlice()
	it.offset = dec.Uvarint()
	if len(sent) != len(it.sentSeq) || len(recv) != len(it.recvSeq) {
		return fmt.Errorf("core: restore %s[%d]: channel count mismatch (%d/%d sent, %d/%d recv)",
			it.spec.Name, it.idx, len(sent), len(it.sentSeq), len(recv), len(it.recvSeq))
	}
	copy(it.sentSeq, sent)
	copy(it.recvSeq, recv)
	it.maxEventNS = dec.Varint()
	it.curWM = dec.Varint()
	if n := int(dec.Uvarint()); n != len(it.chanWM) {
		return fmt.Errorf("core: restore %s[%d]: watermark channel count mismatch (%d/%d)",
			it.spec.Name, it.idx, n, len(it.chanWM))
	}
	for i := range it.chanWM {
		it.chanWM[i] = dec.Varint()
	}
	if dec.Bool() {
		ds, err := dedup.RestoreSet(dec)
		if err != nil {
			return fmt.Errorf("core: restore %s[%d] dedup: %w", it.spec.Name, it.idx, err)
		}
		it.dedup = ds
	}
	if dec.Bool() {
		if it.ctrl == nil {
			return fmt.Errorf("core: restore %s[%d]: checkpoint has controller state but protocol has none", it.spec.Name, it.idx)
		}
		if err := it.ctrl.Restore(dec); err != nil {
			return fmt.Errorf("core: restore %s[%d] controller: %w", it.spec.Name, it.idx, err)
		}
	}
	if dec.Bool() {
		if it.oper == nil {
			return fmt.Errorf("core: restore %s[%d]: checkpoint has operator state for a source", it.spec.Name, it.idx)
		}
		if err := it.oper.Restore(dec); err != nil {
			return fmt.Errorf("core: restore %s[%d] operator: %w", it.spec.Name, it.idx, err)
		}
	}
	// Channel state captured by an unaligned checkpoint: re-injected into
	// this instance's inbox by the engine before it starts.
	n := int(dec.Uvarint())
	for i := 0; i < n; i++ {
		queue := int(dec.Uvarint())
		data := dec.Bytes()
		if dec.Err() != nil {
			break
		}
		if queue < 0 || queue >= len(it.inChans) {
			return fmt.Errorf("core: restore %s[%d]: channel-state queue %d out of range", it.spec.Name, it.idx, queue)
		}
		cp := append([]byte(nil), data...)
		it.pendingInject = append(it.pendingInject, capturedMsg{queue: queue, count: envelopeRecordCount(cp), data: cp})
	}
	return dec.Err()
}

// runSource is the main loop of a source instance: rate-limited reads from
// its broker partition, coordinated-round handling, and local checkpoints.
// Ingestion is batched symmetrically with the exchange: records are fetched
// from the partition in ReadBatch chunks and staged locally; the read
// buffer is purely local, so checkpointed offsets and recovery rewinds are
// unaffected by read-ahead.
func (it *instance) runSource(part sourcePartition) {
	defer it.w.wg.Done()
	timer := time.NewTimer(it.eng.cfg.PollInterval)
	defer timer.Stop()
	readMax := it.eng.cfg.Batching.MaxRecords
	if readMax < minSourceReadBatch {
		readMax = minSourceReadBatch
	}
	var (
		readBuf []sourceRecord
		readPos int
	)
	for {
		if it.stopped() {
			return
		}
		select {
		case round := <-it.ctl:
			it.takeCheckpoint(round, false)
			it.sendMarker(round)
			continue
		default:
		}
		if readPos >= len(readBuf) {
			readBuf = part.ReadBatch(readBuf[:0], it.offset, readMax)
			readPos = 0
		}
		if readPos >= len(readBuf) {
			// End of available input: flush what is buffered and idle-poll.
			it.flushAllOut(metrics.FlushLinger)
			it.poll()
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(it.eng.cfg.PollInterval)
			select {
			case round := <-it.ctl:
				it.takeCheckpoint(round, false)
				it.sendMarker(round)
			case <-timer.C:
			case <-it.w.stopCh:
				return
			}
			continue
		}
		rec := readBuf[readPos]
		// Respect the arrival schedule: never emit early.
		for {
			now := it.eng.nowNS()
			d := rec.ScheduleNS - now
			if d <= 0 {
				it.lagNS.Store(-d)
				break
			}
			it.lagNS.Store(0)
			// About to wait for the schedule: buffered records would only
			// age past the linger bound, so flush them now.
			it.flushAllOut(metrics.FlushLinger)
			sleep := time.Duration(d)
			if sleep > it.eng.cfg.PollInterval {
				sleep = it.eng.cfg.PollInterval
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(sleep)
			select {
			case round := <-it.ctl:
				it.takeCheckpoint(round, false)
				it.sendMarker(round)
			case <-timer.C:
			case <-it.w.stopCh:
				return
			}
			if it.stopped() {
				return
			}
		}
		uid := sourceUID(it.spec.Source.Topic, it.idx, rec.Offset)
		eventNS := rec.ScheduleNS
		if f := it.spec.Source.EventTime; f != nil {
			eventNS = f(rec.Key, rec.Value)
		}
		if eventNS > it.maxEventNS {
			it.maxEventNS = eventNS
		}
		for oe := range it.outEdges {
			it.send(oe, rec.Key, rec.Value, rec.ScheduleNS, eventNS, uid)
		}
		it.offset = rec.Offset + 1
		readPos++
		it.eng.volatileOffsets[it.gid].Store(it.offset)
		it.msgCount++
		if it.msgCount%64 == 0 {
			it.poll()
		}
	}
}

// minSourceReadBatch is the smallest source read-ahead chunk; even an
// unbatched exchange (MaxRecords=1) amortizes partition lock acquisitions
// over this many records, which is safe because the read buffer never
// affects checkpointed offsets.
const minSourceReadBatch = 16

// sourcePartition abstracts the broker partition a source reads.
type sourcePartition interface {
	Read(offset uint64) (sourceRecord, bool)
	// ReadBatch appends up to max records starting at offset to dst and
	// returns the extended slice, stopping early at the end of the log.
	ReadBatch(dst []sourceRecord, offset uint64, max int) []sourceRecord
}

// sourceRecord mirrors mq.Record without importing it here (the engine
// adapter wraps the broker).
type sourceRecord struct {
	Offset     uint64
	ScheduleNS int64
	Key        uint64
	Value      wire.Value
}
