package core

import (
	"sync"
	"sync/atomic"
)

// inbox is the receive side of one operator instance: one bounded FIFO per
// incoming channel plus a wakeup signal. Senders block when a queue is full
// (backpressure); the receiver scans queues round-robin, skipping channels
// blocked by checkpoint-marker alignment.
//
// Every channel in the engine is single-producer/single-consumer by
// construction — channelKey gives each (edge, sender instance, receiver
// instance) pair its own queue, and all sends on it come from the sender's
// processing goroutine. Two implementations exploit or ignore that fact:
//
//   - spscQueue (the fast path): a lock-free ring with atomic head/tail
//     indices. The data path — push by the sender, drain by the receiver —
//     takes no lock at all; a small control mutex serializes only the rare
//     control-frame mutations (marker overtake, replay force-loads) against
//     the receiver, never against the sender.
//   - chQueue (the fallback): the original mutex+cond ring, kept for
//     oversized-capacity channels (cyclic feedback edges run with caps far
//     beyond what a preallocated ring should pin) and as the reference
//     implementation the SPSC path is equivalence-tested against.
//
// Both provide identical semantics: record-granular capacity, pushFront
// marker overtake with exact markCount, alignment blocking, control frames
// terminating a drain, and batched sender wakeups (a drain of up to 32
// envelopes wakes a blocked sender once, not per envelope).
type inbox struct {
	queues []chq
	notify chan struct{}
	rr     int // receiver-only round-robin cursor
	closed atomic.Bool
	popBuf [1]qEntry // receiver-only scratch for single pops
}

// qEntry is one queued envelope: the serialized frame plus the number of
// data records it delivers (0 for control frames — markers and watermarks —
// the batch size for msgBatch envelopes). Tracking counts here keeps
// backpressure depth and overtake accounting record-granular regardless of
// how records are framed.
type qEntry struct {
	data  []byte
	count int
}

// occupancy is the capacity charge of an entry: its record count, with
// control frames charged one slot so a full queue still backpressures an
// aligned marker exactly as the unbatched engine did.
func (e qEntry) occupancy() int {
	if e.count == 0 {
		return 1
	}
	return e.count
}

// chq is the per-channel queue contract shared by the lock-free SPSC ring
// and the mutex fallback. push is sender-only; drainInto, takeMarkCount and
// setBlocked are receiver-only; pushFront is issued by the channel's sender
// goroutine (marker overtake); force runs before the world (re)starts.
type chq interface {
	// push appends an envelope, blocking while the queue is at record
	// capacity; returns false if closed flipped before it could be enqueued.
	push(closed *atomic.Bool, e qEntry) bool
	// pushFront inserts an envelope ahead of everything queued (unaligned
	// marker overtake) and records the overtaken record count.
	pushFront(e qEntry)
	// force appends ignoring the capacity bound (pre-start replay loading).
	force(e qEntry)
	// takeMarkCount reads and clears the overtaken-record count.
	takeMarkCount() int
	// drainInto appends deliverable envelopes to dst up to cap(dst),
	// stopping after the first control frame; empty result means blocked or
	// empty. Wakes a blocked sender at most once per call.
	drainInto(dst []qEntry) []qEntry
	// setBlocked marks the channel (un)blocked for marker alignment.
	setBlocked(blocked bool)
	// pendingOcc reports the queue's capacity charge when deliverable, 0
	// when alignment-blocked.
	pendingOcc() int
	// wakeSenders wakes any sender waiting out backpressure (close path).
	wakeSenders()
}

// spscMaxCap bounds the record capacity served by the preallocated SPSC
// ring. Feedback channels (feedbackCap, 64Ki records) fall back to
// the growable mutex ring rather than pinning megabytes per channel.
const spscMaxCap = 4096

func newInbox(caps []int) *inbox {
	return newInboxQueues(caps, false)
}

// newInboxQueues builds an inbox choosing the SPSC fast path per channel;
// forceMutex pins every channel to the mutex fallback (equivalence tests).
func newInboxQueues(caps []int, forceMutex bool) *inbox {
	in := &inbox{
		queues: make([]chq, len(caps)),
		notify: make(chan struct{}, 1),
	}
	for i, c := range caps {
		if !forceMutex && c <= spscMaxCap {
			in.queues[i] = newSPSCQueue(c)
		} else {
			q := &chQueue{cap: c}
			q.cond = sync.NewCond(&q.mu)
			in.queues[i] = q
		}
	}
	return in
}

// push appends an envelope carrying count records to queue ch, blocking
// while the queue is at record capacity. It returns false if the inbox was
// closed (world stopping) before the envelope could be enqueued.
func (in *inbox) push(ch int, data []byte, count int) bool {
	if !in.queues[ch].push(&in.closed, qEntry{data: data, count: count}) {
		return false
	}
	select {
	case in.notify <- struct{}{}:
	default:
	}
	return true
}

// pushFront inserts an envelope at the head of queue ch, overtaking all
// queued records (unaligned checkpoint markers). It never blocks and
// records the number of overtaken records in the queue's markCount.
func (in *inbox) pushFront(ch int, data []byte, count int) bool {
	if in.closed.Load() {
		return false
	}
	in.queues[ch].pushFront(qEntry{data: data, count: count})
	select {
	case in.notify <- struct{}{}:
	default:
	}
	return true
}

// takeMarkCount reads and clears the overtaken-record count of queue ch.
func (in *inbox) takeMarkCount(ch int) int {
	return in.queues[ch].takeMarkCount()
}

// force appends an envelope ignoring the capacity bound. Used to pre-load
// replayed in-flight messages before a recovered instance starts.
func (in *inbox) force(ch int, data []byte, count int) {
	in.queues[ch].force(qEntry{data: data, count: count})
	select {
	case in.notify <- struct{}{}:
	default:
	}
}

// pop removes and returns the next deliverable envelope (and its record
// count), scanning round-robin over non-blocked queues. ok is false when
// nothing is deliverable. Receiver-only.
func (in *inbox) pop() (data []byte, count int, ch int, ok bool) {
	n := len(in.queues)
	for i := 0; i < n; i++ {
		idx := (in.rr + i) % n
		dst := in.queues[idx].drainInto(in.popBuf[:0])
		if len(dst) == 0 {
			continue
		}
		in.rr = (idx + 1) % n
		e := dst[0]
		in.popBuf[0] = qEntry{} // release the frame reference
		return e.data, e.count, idx, true
	}
	return nil, 0, 0, false
}

// popMany drains up to cap(dst)-len(dst) deliverable envelopes from a
// single channel per call, amortizing synchronization the same way batching
// amortized framing. It appends to dst and returns the extended slice plus
// the channel drained.
//
// Exact-semantics guards (both queue implementations):
//   - The drain stops after the first control frame (count == 0): a marker
//     may block its channel or complete a round when handled, so nothing
//     queued behind it is popped until the consumer processed it.
//   - Channels blocked by alignment are skipped entirely.
//   - The channel's sender is woken at most once per drain, however many
//     envelopes were released — the wakeup pop produced per envelope,
//     batched.
//   - The round-robin cursor advances to the next channel per call, so a
//     busy channel cannot starve its peers (fairness granularity becomes
//     the drain bound instead of one envelope).
//
// Receiver-only.
func (in *inbox) popMany(dst []qEntry) ([]qEntry, int) {
	n := len(in.queues)
	for i := 0; i < n; i++ {
		idx := (in.rr + i) % n
		ext := in.queues[idx].drainInto(dst)
		if len(ext) == len(dst) {
			continue
		}
		in.rr = (idx + 1) % n
		return ext, idx
	}
	return dst, -1
}

// setBlocked marks queue ch as (un)blocked for alignment.
func (in *inbox) setBlocked(ch int, blocked bool) {
	in.queues[ch].setBlocked(blocked)
	if !blocked {
		select {
		case in.notify <- struct{}{}:
		default:
		}
	}
}

// unblockAll clears all alignment blocks.
func (in *inbox) unblockAll() {
	for _, q := range in.queues {
		q.setBlocked(false)
	}
	select {
	case in.notify <- struct{}{}:
	default:
	}
}

// close marks the inbox closed and wakes all blocked senders; pushes fail
// from now on.
func (in *inbox) close() {
	in.closed.Store(true)
	for _, q := range in.queues {
		q.wakeSenders()
	}
	select {
	case in.notify <- struct{}{}:
	default:
	}
}

// pending reports the number of queued envelopes-worth of work currently
// deliverable — data records plus control frames — excluding
// alignment-blocked channels (their contents cannot be consumed until the
// round completes). The sum is taken queue by queue, not atomically across
// the inbox; concurrent pushes may or may not be counted, which is fine for
// its only use (the receiver deciding whether to sleep — a missed push is
// caught by the notify channel).
func (in *inbox) pending() int {
	n := 0
	for _, q := range in.queues {
		n += q.pendingOcc()
	}
	return n
}

// ---------------------------------------------------------------------------
// spscQueue: the lock-free single-producer/single-consumer fast path.
// ---------------------------------------------------------------------------

// spscQueue is a bounded SPSC ring with atomic head/tail indices. The data
// path is lock-free: the sender claims the next tail slot and publishes it
// with a release store; the receiver consumes up to the observed tail and
// publishes consumption through head. Capacity is counted in records (occ),
// exactly like the mutex queue.
//
// Control frames need more than FIFO: an unaligned marker overtakes the
// queue and must record precisely how many records it overtook, and replay
// force-loads may overfill the ring. Those paths go through ctl, a mutex the
// receiver also holds while popping — so a marker's overtake count is
// computed with no pop in flight and is exact, not approximate. The sender's
// data path never touches ctl: pushFront is issued by the sender goroutine
// itself (no self-race), and force runs only before the world starts.
//
// Backpressure blocking uses a separate mutex+cond the sender only falls
// into when the queue is actually full; the receiver's wake check is one
// atomic load (waiters == 0 → no syscall, no lock) issued once per drain.
type spscQueue struct {
	// tail is written by the sender, head by the receiver; both are
	// monotonically increasing logical indices (slot = index & mask). The
	// pads keep the two hot indices off each other's cache line.
	tail atomic.Uint64
	_    [56]byte
	head atomic.Uint64
	_    [56]byte

	// acct packs the two record-granular counters into one atomic so the
	// data path pays a single RMW per push and per drain: the high 32 bits
	// hold the occupancy charge (gates sender capacity), the low 32 bits
	// the record count (feeds exact markCount). Halves never underflow
	// (drains subtract exactly what pushes added) and stay far below 2^32
	// (bounded by the channel cap plus replay preload), so the packed
	// add/subtract never borrows or carries across the boundary.
	acct atomic.Uint64

	// blocked is the alignment gate: written by the receiver, read by
	// pending() from engine-side goroutines.
	blocked atomic.Bool

	slots []qEntry
	mask  uint64
	cap   int

	// ctl serializes control mutations (pushFront, force, takeMarkCount)
	// with the receiver's pops. The sender's push path never takes it.
	ctl sync.Mutex
	// front is the overtake lane: entries delivered LIFO ahead of the ring,
	// exactly like front-inserts stacking at the mutex ring's head.
	front     []qEntry
	markCount int

	// Backpressure: senders wait on bcond when occ >= cap; waiters gates
	// the receiver's wake so the uncontended drain path stays lock-free.
	bmu     sync.Mutex
	bcond   *sync.Cond
	waiters atomic.Int32
}

// acctDelta is entry e's packed acct contribution.
func acctDelta(e qEntry) uint64 {
	return uint64(e.occupancy())<<32 | uint64(uint32(e.count))
}

func acctOcc(v uint64) int  { return int(v >> 32) }
func acctRecs(v uint64) int { return int(uint32(v)) }

func newSPSCQueue(capacity int) *spscQueue {
	// Ring sizing: every entry charges occupancy >= 1 and push admits only
	// while occ < cap, so at most cap entries can ever be ring-resident —
	// a power-of-two ring of >= cap slots never blocks a push the record
	// capacity would have admitted. force may overfill; it grows the ring
	// under quiescence.
	size := 8
	for size < capacity {
		size *= 2
	}
	q := &spscQueue{
		slots: make([]qEntry, size),
		mask:  uint64(size - 1),
		cap:   capacity,
	}
	q.bcond = sync.NewCond(&q.bmu)
	return q
}

func (q *spscQueue) push(closed *atomic.Bool, e qEntry) bool {
	// Admission checks occupancy alone: every entry (ring or front lane)
	// charges >= 1, the ring never holds fewer slots than cap, and drains
	// free occupancy only after advancing head — so occ < cap implies a free
	// ring slot, and the producer never touches the consumer-written head
	// line on the fast path.
	for {
		if closed.Load() {
			return false
		}
		if acctOcc(q.acct.Load()) < q.cap {
			break
		}
		// Full: wait it out. The waiters counter is raised under bmu before
		// the condition is re-checked, so a receiver that drained in between
		// either sees the waiter (and broadcasts) or already freed capacity
		// (and the re-check falls through without sleeping).
		q.bmu.Lock()
		q.waiters.Add(1)
		for !closed.Load() && acctOcc(q.acct.Load()) >= q.cap {
			q.bcond.Wait()
		}
		q.waiters.Add(-1)
		q.bmu.Unlock()
	}
	// Charge occupancy before publishing so a concurrent pending() never
	// undercounts an entry the receiver is about to observe.
	q.acct.Add(acctDelta(e))
	t := q.tail.Load()
	q.slots[t&q.mask] = e
	q.tail.Store(t + 1)
	return true
}

func (q *spscQueue) pushFront(e qEntry) {
	q.ctl.Lock()
	// Exact overtake count: ctl excludes receiver pops, and the sender — the
	// only other mutator — is this goroutine, so the record count is
	// momentarily frozen and equals precisely the records the marker
	// overtakes.
	q.markCount = acctRecs(q.acct.Load())
	q.front = append(q.front, e)
	q.acct.Add(acctDelta(e))
	q.ctl.Unlock()
}

func (q *spscQueue) takeMarkCount() int {
	q.ctl.Lock()
	n := q.markCount
	q.markCount = 0
	q.ctl.Unlock()
	return n
}

// force appends ignoring the capacity bound. It runs only while the channel
// is quiescent (pre-start replay loading: neither endpoint goroutine is
// running), which is what makes growing the ring safe.
func (q *spscQueue) force(e qEntry) {
	q.ctl.Lock()
	t := q.tail.Load()
	if t-q.head.Load() == uint64(len(q.slots)) {
		q.grow()
	}
	q.slots[t&q.mask] = e
	q.tail.Store(t + 1)
	q.acct.Add(acctDelta(e))
	q.ctl.Unlock()
}

// grow doubles the ring preserving the logical head/tail indices (caller
// holds ctl; endpoints quiescent).
func (q *spscQueue) grow() {
	ns := make([]qEntry, len(q.slots)*2)
	nm := uint64(len(ns) - 1)
	for i := q.head.Load(); i < q.tail.Load(); i++ {
		ns[i&nm] = q.slots[i&q.mask]
	}
	q.slots = ns
	q.mask = nm
}

func (q *spscQueue) drainInto(dst []qEntry) []qEntry {
	if q.blocked.Load() {
		return dst
	}
	base := len(dst)
	var taken uint64
	stopped := false
	q.ctl.Lock()
	// Overtake lane first, newest first — the order front-inserts surface
	// from the mutex ring's head.
	for !stopped && len(q.front) > 0 && len(dst) < cap(dst) {
		n := len(q.front) - 1
		e := q.front[n]
		q.front[n] = qEntry{}
		q.front = q.front[:n]
		taken += acctDelta(e)
		dst = append(dst, e)
		stopped = e.count == 0
	}
	if !stopped {
		h := q.head.Load()
		t := q.tail.Load()
		for h < t && len(dst) < cap(dst) {
			e := q.slots[h&q.mask]
			q.slots[h&q.mask] = qEntry{} // release the frame reference
			h++
			taken += acctDelta(e)
			dst = append(dst, e)
			if e.count == 0 {
				break // control frame: handle before draining further
			}
		}
		q.head.Store(h)
	}
	q.acct.Add(-taken)
	q.ctl.Unlock()
	if len(dst) > base && q.waiters.Load() > 0 {
		// One wake per drain, and only when a sender is actually parked.
		q.bmu.Lock()
		q.bcond.Broadcast()
		q.bmu.Unlock()
	}
	return dst
}

func (q *spscQueue) setBlocked(blocked bool) {
	q.blocked.Store(blocked)
}

func (q *spscQueue) pendingOcc() int {
	if q.blocked.Load() {
		return 0
	}
	return acctOcc(q.acct.Load())
}

func (q *spscQueue) wakeSenders() {
	q.bmu.Lock()
	q.bcond.Broadcast()
	q.bmu.Unlock()
}

// ---------------------------------------------------------------------------
// chQueue: the mutex+cond fallback and reference implementation.
// ---------------------------------------------------------------------------

// chQueue is one bounded per-channel FIFO of serialized envelopes, stored
// in a growable power-of-two ring so both append and front-insert (marker
// overtake) are O(1). Capacity is counted in records, not envelopes, so the
// configured channel depth means the same thing at every batch size.
type chQueue struct {
	mu   sync.Mutex
	cond *sync.Cond // on mu: the channel's sender waiting out backpressure

	buf  []qEntry // ring storage; len(buf) is a power of two
	head int      // ring index of the oldest entry
	n    int      // entries currently queued

	recs    int // queued data records
	occ     int // capacity charge: records plus one slot per control frame
	cap     int
	blocked bool // alignment: do not deliver, do not drain
	// markCount records how many pre-barrier records were overtaken by
	// the last front-inserted (unaligned) marker. Record-granular: a queued
	// batch contributes its full record count.
	markCount int
}

// grow doubles the ring, re-linearizing entries at index 0.
func (q *chQueue) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 8
	}
	nb := make([]qEntry, size)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

// pushBack appends an entry to the ring (caller holds mu).
func (q *chQueue) pushBack(e qEntry) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
	q.recs += e.count
	q.occ += e.occupancy()
}

// pushFrontE inserts an entry at the ring head in O(1) (caller holds mu).
func (q *chQueue) pushFrontE(e qEntry) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = e
	q.n++
	q.recs += e.count
	q.occ += e.occupancy()
}

// popFront removes the oldest entry (caller holds mu; q.n > 0).
func (q *chQueue) popFront() qEntry {
	e := q.buf[q.head]
	q.buf[q.head] = qEntry{} // release the frame reference
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	q.recs -= e.count
	q.occ -= e.occupancy()
	return e
}

func (q *chQueue) push(closed *atomic.Bool, e qEntry) bool {
	q.mu.Lock()
	for q.occ >= q.cap && !closed.Load() {
		q.cond.Wait()
	}
	if closed.Load() {
		q.mu.Unlock()
		return false
	}
	q.pushBack(e)
	q.mu.Unlock()
	return true
}

func (q *chQueue) pushFront(e qEntry) {
	q.mu.Lock()
	q.markCount = q.recs
	q.pushFrontE(e)
	q.mu.Unlock()
}

func (q *chQueue) takeMarkCount() int {
	q.mu.Lock()
	n := q.markCount
	q.markCount = 0
	q.mu.Unlock()
	return n
}

func (q *chQueue) force(e qEntry) {
	q.mu.Lock()
	q.pushBack(e)
	q.mu.Unlock()
}

func (q *chQueue) drainInto(dst []qEntry) []qEntry {
	q.mu.Lock()
	if q.blocked || q.n == 0 {
		q.mu.Unlock()
		return dst
	}
	wasFull := q.occ >= q.cap
	for q.n > 0 && len(dst) < cap(dst) {
		e := q.popFront()
		dst = append(dst, e)
		if e.count == 0 {
			break // control frame: handle before draining further
		}
	}
	if wasFull && q.occ < q.cap {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
	return dst
}

func (q *chQueue) setBlocked(blocked bool) {
	q.mu.Lock()
	q.blocked = blocked
	if !blocked {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

func (q *chQueue) pendingOcc() int {
	q.mu.Lock()
	n := 0
	if !q.blocked {
		n = q.occ
	}
	q.mu.Unlock()
	return n
}

func (q *chQueue) wakeSenders() {
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()
}
