package nexmark

import (
	"fmt"
	"time"

	"checkmate/internal/core"
	"checkmate/internal/statestore"
	"checkmate/internal/wire"
)

// QueryConfig tunes query parameters.
type QueryConfig struct {
	// Window is the tumbling processing-time window of Q8 and Q12, and the
	// sliding window size of Q5.
	Window time.Duration
	// Slide is the sliding-window step of Q5. Defaults to Window/2 and must
	// divide Window.
	Slide time.Duration
	// SessionGap is the inactivity gap closing a Q11 session. Defaults to
	// Window/2.
	SessionGap time.Duration
}

func (qc *QueryConfig) applyDefaults() {
	if qc.Window <= 0 {
		qc.Window = time.Second
	}
	if qc.Slide <= 0 {
		qc.Slide = qc.Window / 2
	}
	if qc.SessionGap <= 0 {
		qc.SessionGap = qc.Window / 2
	}
}

// Queries lists the NexMark queries this package implements. The paper
// evaluates q1, q3, q8 and q12; q2, q5 and q11 extend the workload library.
var Queries = []string{"q1", "q2", "q3", "q4", "q5", "q7", "q8", "q11", "q12", "q12et"}

// Build returns the dataflow job of the named query (q1, q2, q3, q5, q8,
// q11, q12).
func Build(name string, qc QueryConfig) (*core.JobSpec, error) {
	qc.applyDefaults()
	switch name {
	case "q1", "Q1":
		return buildQ1(), nil
	case "q2", "Q2":
		return buildQ2(), nil
	case "q3", "Q3":
		return buildQ3(), nil
	case "q4", "Q4":
		return buildQ4(), nil
	case "q5", "Q5":
		return buildQ5(qc.Window, qc.Slide), nil
	case "q7", "Q7":
		return buildQ7(qc.Window), nil
	case "q8", "Q8":
		return buildQ8(qc.Window), nil
	case "q11", "Q11":
		return buildQ11(qc.SessionGap), nil
	case "q12", "Q12":
		return buildQ12(qc.Window), nil
	case "q12et", "Q12ET":
		return buildQ12ET(qc.Window), nil
	default:
		return nil, fmt.Errorf("nexmark: unknown query %q", name)
	}
}

// TopicsFor lists the topics the named query consumes.
func TopicsFor(name string) []string {
	switch name {
	case "q1", "Q1", "q2", "Q2", "q5", "Q5", "q7", "Q7", "q11", "Q11", "q12", "Q12", "q12et", "Q12ET":
		return []string{TopicBids}
	case "q3", "Q3", "q8", "Q8":
		return []string{TopicPersons, TopicAuctions}
	case "q4", "Q4":
		return []string{TopicAuctions, TopicBids}
	default:
		return nil
	}
}

// ---- Q1: currency conversion (stateless map, no shuffling) ----

// q1Map converts bid prices from USD to EUR (the classic 0.908 rate).
// out is a per-instance emit scratch: Context.Emit serializes the value
// synchronously, so reusing it avoids one allocation per record on the
// hottest map in the benchmark suite.
type q1Map struct{ out Q1Result }

// OnEvent implements core.Operator.
func (m *q1Map) OnEvent(ctx core.Context, ev core.Event) {
	b := ev.Value.(*Bid)
	m.out = Q1Result{
		Auction:  b.Auction,
		Bidder:   b.Bidder,
		PriceEur: b.Price * 908 / 1000,
		DateTime: b.DateTime,
	}
	ctx.Emit(ev.Key, &m.out)
}

// Snapshot implements core.Operator (stateless).
func (*q1Map) Snapshot(enc *wire.Encoder) {}

// Restore implements core.Operator.
func (*q1Map) Restore(dec *wire.Decoder) error { return nil }

func buildQ1() *core.JobSpec {
	return &core.JobSpec{
		Name: "q1",
		Ops: []core.OpSpec{
			{Name: "bids", Source: &core.SourceSpec{Topic: TopicBids}},
			{Name: "map", New: func(int) core.Operator { return &q1Map{} }},
			{Name: "sink", Sink: true, New: func(int) core.Operator { return NewCountSink() }},
		},
		Edges: []core.EdgeSpec{
			{From: 0, To: 1, Part: core.Forward},
			{From: 1, To: 2, Part: core.Forward},
		},
	}
}

// ---- Q3: incremental stateful join with filters and shuffling ----

// personFilter passes persons from OR, ID or CA, keyed by person id.
type personFilter struct{}

// OnEvent implements core.Operator.
func (personFilter) OnEvent(ctx core.Context, ev core.Event) {
	p := ev.Value.(*Person)
	switch p.State {
	case "OR", "ID", "CA":
		ctx.Emit(p.ID, p)
	}
}

// Snapshot implements core.Operator.
func (personFilter) Snapshot(enc *wire.Encoder) {}

// Restore implements core.Operator.
func (personFilter) Restore(dec *wire.Decoder) error { return nil }

// auctionFilter passes auctions of category 10, keyed by seller.
type auctionFilter struct{}

// OnEvent implements core.Operator.
func (auctionFilter) OnEvent(ctx core.Context, ev core.Event) {
	a := ev.Value.(*Auction)
	if a.Category == 10 {
		ctx.Emit(a.Seller, a)
	}
}

// Snapshot implements core.Operator.
func (auctionFilter) Snapshot(enc *wire.Encoder) {}

// Restore implements core.Operator.
func (auctionFilter) Restore(dec *wire.Decoder) error { return nil }

// q3Join is the incremental two-sided join: persons and auctions keyed by
// person id = seller. Both sides are retained (the paper's "state grows"
// observation for Q3) — in the engine-owned keyed state backend, so delta
// checkpoints upload only the per-event churn instead of the ever-growing
// join tables. A seller's pending auctions are one value of concatenated
// uvarint ids (see appendPending), so an arrival costs one keyed-state
// Append however long the list has grown — under skew the hot seller's
// list holds thousands of ids.
type q3Join struct {
	scratch *wire.Encoder
	dec     wire.Decoder
}

func newQ3Join() *q3Join {
	return &q3Join{scratch: wire.NewEncoder(nil)}
}

// UsesKeyedState implements core.KeyedStateUser.
func (*q3Join) UsesKeyedState() {}

// Backend key layout: the person id / seller in the upper bits, one
// namespace bit (retained person vs pending-auction list) at the bottom.
func q3PersonKey(id uint64) uint64  { return id<<1 | 0 }
func q3AuctionKey(id uint64) uint64 { return id<<1 | 1 }

// OnEvent implements core.Operator.
func (j *q3Join) OnEvent(ctx core.Context, ev core.Event) {
	kv := ctx.KeyedState()
	switch v := ev.Value.(type) {
	case *Person:
		j.scratch.Reset()
		v.MarshalWire(j.scratch)
		kv.PutOwned(q3PersonKey(v.ID), ownedCopy(j.scratch))
		if b, ok := kv.Get(q3AuctionKey(v.ID)); ok {
			forEachPending(&j.dec, b, func(auction uint64) {
				ctx.Emit(v.ID, &Q3Result{Name: v.Name, City: v.City, State: v.State, Auction: auction})
			})
			kv.Delete(q3AuctionKey(v.ID))
		}
	case *Auction:
		if b, ok := kv.Get(q3PersonKey(v.Seller)); ok {
			pv, err := decodePerson(wire.NewDecoder(b))
			if err != nil {
				panic(fmt.Sprintf("nexmark: q3 person state corrupt: %v", err))
			}
			p := pv.(*Person)
			ctx.Emit(p.ID, &Q3Result{Name: p.Name, City: p.City, State: p.State, Auction: v.ID})
			return
		}
		appendPending(kv, j.scratch, q3AuctionKey(v.Seller), v.ID)
	}
}

// appendPending adds auction id to the pending list under key. A list is
// the concatenation of its ids as uvarints, with no count prefix, so an
// arrival appends to the stored value instead of decoding and re-encoding
// the whole list.
func appendPending(kv *statestore.Store, scratch *wire.Encoder, key, id uint64) {
	scratch.Reset()
	scratch.Uvarint(id)
	kv.Append(key, scratch.Bytes())
}

// forEachPending calls fn for every auction id of a pending list, in
// arrival order, decoding with the caller's reused decoder.
func forEachPending(dec *wire.Decoder, list []byte, fn func(id uint64)) {
	dec.ResetBytes(list)
	for dec.Remaining() > 0 {
		id := dec.Uvarint()
		if err := dec.Err(); err != nil {
			panic(fmt.Sprintf("nexmark: pending-auction list corrupt: %v", err))
		}
		fn(id)
	}
}

// ownedCopy snapshots a scratch encoder's contents into an exactly-sized
// buffer whose ownership transfers to the keyed store via PutOwned,
// keeping the scratch encoder reusable for the next event. The cost is the
// same one allocation + copy Put would take; the point is the explicit
// ownership transfer — the backend's copy-on-write captures rely on stored
// buffers never being touched again by the writer, and PutOwned states
// that contract at the call site. Sites that already hold a throwaway
// owned buffer (the q8 person name) genuinely skip Put's defensive copy.
func ownedCopy(enc *wire.Encoder) []byte {
	buf := make([]byte, enc.Len())
	copy(buf, enc.Bytes())
	return buf
}

// Snapshot implements core.Operator. The join state lives in the keyed
// backend and is persisted by the engine.
func (j *q3Join) Snapshot(enc *wire.Encoder) {}

// Restore implements core.Operator.
func (j *q3Join) Restore(dec *wire.Decoder) error { return nil }

func buildQ3() *core.JobSpec {
	return &core.JobSpec{
		Name: "q3",
		Ops: []core.OpSpec{
			{Name: "persons", Source: &core.SourceSpec{Topic: TopicPersons}},
			{Name: "auctions", Source: &core.SourceSpec{Topic: TopicAuctions}},
			{Name: "filterP", New: func(int) core.Operator { return personFilter{} }},
			{Name: "filterA", New: func(int) core.Operator { return auctionFilter{} }},
			{Name: "join", New: func(int) core.Operator { return newQ3Join() }},
			{Name: "sink", Sink: true, New: func(int) core.Operator { return NewCountSink() }},
		},
		Edges: []core.EdgeSpec{
			{From: 0, To: 2, Part: core.Forward},
			{From: 1, To: 3, Part: core.Forward},
			{From: 2, To: 4, Part: core.Hash},
			{From: 3, To: 4, Part: core.Hash},
			{From: 4, To: 5, Part: core.Forward},
		},
	}
}

// ---- Q8: windowed join (running processing-time tumbling window) ----

// q8Join joins new persons with new auctions inside a processing-time
// tumbling window. Running variant: matches are emitted on arrival; window
// state is dropped on expiry (the paper's "running window"). All window
// contents live in the engine-owned keyed state backend.
type q8Join struct {
	win     int64
	scratch *wire.Encoder
	dec     wire.Decoder
}

func newQ8Join(win time.Duration) *q8Join {
	return &q8Join{win: win.Nanoseconds(), scratch: wire.NewEncoder(nil)}
}

// UsesKeyedState implements core.KeyedStateUser.
func (*q8Join) UsesKeyedState() {}

// Backend key layout: window index in the high 32 bits, person/seller id in
// the middle, one namespace bit (person name vs pending-auction list) at
// the bottom. NexMark ids are generator sequence numbers, far below 2^31.
func q8Key(widx, id, side uint64) uint64 { return widx<<32 | id<<1 | side }

// OnEvent implements core.Operator.
func (j *q8Join) OnEvent(ctx core.Context, ev core.Event) {
	now := ctx.NowNS()
	start := now - now%j.win
	widx := uint64(start / j.win)
	kv := ctx.KeyedState()
	switch v := ev.Value.(type) {
	case *Person:
		// []byte(name) already allocates an owned copy; PutOwned stores it
		// without the second copy Put would take.
		kv.PutOwned(q8Key(widx, v.ID, 0), []byte(v.Name))
		if b, ok := kv.Get(q8Key(widx, v.ID, 1)); ok {
			forEachPending(&j.dec, b, func(auction uint64) {
				ctx.Emit(v.ID, &Q8Result{Person: v.ID, Name: v.Name, Auction: auction, Window: start})
			})
			kv.Delete(q8Key(widx, v.ID, 1))
		}
	case *Auction:
		if name, ok := kv.Get(q8Key(widx, v.Seller, 0)); ok {
			ctx.Emit(v.Seller, &Q8Result{Person: v.Seller, Name: string(name), Auction: v.ID, Window: start})
			return
		}
		appendPending(kv, j.scratch, q8Key(widx, v.Seller, 1), v.ID)
	}
	ctx.SetTimer(start + 2*j.win)
}

// OnTimer implements core.TimerHandler: drop expired windows.
func (j *q8Join) OnTimer(ctx core.Context, nowNS int64) {
	cur := nowNS - nowNS%j.win
	curIdx := uint64(cur / j.win)
	kv := ctx.KeyedState()
	var expired []uint64
	kv.Range(func(k uint64, _ []byte) bool {
		if k>>32 < curIdx {
			expired = append(expired, k)
		}
		return true
	})
	for _, k := range expired {
		kv.Delete(k)
	}
	if kv.Len() > 0 {
		ctx.SetTimer(cur + 2*j.win)
	}
}

// Snapshot implements core.Operator. Window contents live in the keyed
// backend; only the window width is operator state.
func (j *q8Join) Snapshot(enc *wire.Encoder) { enc.Varint(j.win) }

// Restore implements core.Operator.
func (j *q8Join) Restore(dec *wire.Decoder) error {
	j.win = dec.Varint()
	return dec.Err()
}

func buildQ8(win time.Duration) *core.JobSpec {
	return &core.JobSpec{
		Name: "q8",
		Ops: []core.OpSpec{
			{Name: "persons", Source: &core.SourceSpec{Topic: TopicPersons}},
			{Name: "auctions", Source: &core.SourceSpec{Topic: TopicAuctions}},
			{Name: "join", New: func(int) core.Operator { return newQ8Join(win) }},
			{Name: "sink", Sink: true, New: func(int) core.Operator { return NewCountSink() }},
		},
		Edges: []core.EdgeSpec{
			{From: 0, To: 2, Part: core.Hash},
			{From: 1, To: 2, Part: core.Hash},
			{From: 2, To: 3, Part: core.Forward},
		},
	}
}

// ---- Q12: windowed running count of bids per bidder ----

// bidKeyBy rekeys bids by bidder (the "minor shuffling" of Q12).
type bidKeyBy struct{}

// OnEvent implements core.Operator.
func (bidKeyBy) OnEvent(ctx core.Context, ev core.Event) {
	b := ev.Value.(*Bid)
	ctx.Emit(b.Bidder, b)
}

// Snapshot implements core.Operator.
func (bidKeyBy) Snapshot(enc *wire.Encoder) {}

// Restore implements core.Operator.
func (bidKeyBy) Restore(dec *wire.Decoder) error { return nil }

// q12Count maintains running per-bidder counts per processing-time window,
// stored in the engine-owned keyed state backend.
type q12Count struct {
	win     int64
	scratch *wire.Encoder
}

func newQ12Count(win time.Duration) *q12Count {
	return &q12Count{win: win.Nanoseconds(), scratch: wire.NewEncoder(nil)}
}

// UsesKeyedState implements core.KeyedStateUser.
func (*q12Count) UsesKeyedState() {}

// Backend key layout: window index in the high 32 bits, bidder id below.
// NexMark bidder ids are generator sequence numbers, far below 2^32.
func q12Key(widx, bidder uint64) uint64 { return widx<<32 | bidder }

// OnEvent implements core.Operator.
func (c *q12Count) OnEvent(ctx core.Context, ev core.Event) {
	b := ev.Value.(*Bid)
	now := ctx.NowNS()
	start := now - now%c.win
	widx := uint64(start / c.win)
	kv := ctx.KeyedState()
	var count uint64
	if buf, ok := kv.Get(q12Key(widx, b.Bidder)); ok {
		count = wire.NewDecoder(buf).Uvarint()
	}
	count++
	c.scratch.Reset()
	c.scratch.Uvarint(count)
	kv.PutOwned(q12Key(widx, b.Bidder), ownedCopy(c.scratch))
	ctx.Emit(b.Bidder, &Q12Result{Bidder: b.Bidder, Count: count, Window: start})
	ctx.SetTimer(start + 2*c.win)
}

// OnTimer implements core.TimerHandler.
func (c *q12Count) OnTimer(ctx core.Context, nowNS int64) {
	cur := nowNS - nowNS%c.win
	curIdx := uint64(cur / c.win)
	kv := ctx.KeyedState()
	var expired []uint64
	kv.Range(func(k uint64, _ []byte) bool {
		if k>>32 < curIdx {
			expired = append(expired, k)
		}
		return true
	})
	for _, k := range expired {
		kv.Delete(k)
	}
	if kv.Len() > 0 {
		ctx.SetTimer(cur + 2*c.win)
	}
}

// Snapshot implements core.Operator. Counts live in the keyed backend; only
// the window width is operator state.
func (c *q12Count) Snapshot(enc *wire.Encoder) { enc.Varint(c.win) }

// Restore implements core.Operator.
func (c *q12Count) Restore(dec *wire.Decoder) error {
	c.win = dec.Varint()
	return dec.Err()
}

func buildQ12(win time.Duration) *core.JobSpec {
	return &core.JobSpec{
		Name: "q12",
		Ops: []core.OpSpec{
			{Name: "bids", Source: &core.SourceSpec{Topic: TopicBids}},
			{Name: "keyBy", New: func(int) core.Operator { return bidKeyBy{} }},
			{Name: "count", New: func(int) core.Operator { return newQ12Count(win) }},
			{Name: "sink", Sink: true, New: func(int) core.Operator { return NewCountSink() }},
		},
		Edges: []core.EdgeSpec{
			{From: 0, To: 1, Part: core.Forward},
			{From: 1, To: 2, Part: core.Hash},
			{From: 2, To: 3, Part: core.Forward},
		},
	}
}

// ---- shared sink ----

// CountSink counts records; as checkpointed state the count participates in
// exactly-once verification.
type CountSink struct {
	Count uint64
}

// NewCountSink returns an empty sink.
func NewCountSink() *CountSink { return &CountSink{} }

// OnEvent implements core.Operator.
func (s *CountSink) OnEvent(ctx core.Context, ev core.Event) { s.Count++ }

// Snapshot implements core.Operator.
func (s *CountSink) Snapshot(enc *wire.Encoder) { enc.Uvarint(s.Count) }

// Restore implements core.Operator.
func (s *CountSink) Restore(dec *wire.Decoder) error {
	s.Count = dec.Uvarint()
	return dec.Err()
}
