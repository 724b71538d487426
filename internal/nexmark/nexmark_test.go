package nexmark

import (
	"fmt"
	"testing"
	"time"

	"checkmate/internal/core"
	"checkmate/internal/mq"
	"checkmate/internal/statestore"
	"checkmate/internal/wire"
)

func TestGenerateMix(t *testing.T) {
	broker := mq.NewBroker()
	counts, err := Generate(broker, GenConfig{Rate: 5000, Duration: time.Second, Partitions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := counts[TopicPersons] + counts[TopicAuctions] + counts[TopicBids]
	if total != 5000 {
		t.Fatalf("total = %d", total)
	}
	// Standard NexMark mix: 1:3:46.
	if counts[TopicPersons] != 100 || counts[TopicAuctions] != 300 || counts[TopicBids] != 4600 {
		t.Fatalf("mix = %v", counts)
	}
	topic, _ := broker.Topic(TopicBids)
	if topic.TotalLen() != 4600 {
		t.Fatalf("bid topic len = %d", topic.TotalLen())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	read := func() []mq.Record {
		b := mq.NewBroker()
		if _, err := Generate(b, GenConfig{Rate: 1000, Duration: time.Second, Partitions: 1, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		topic, _ := b.Topic(TopicBids)
		return topic.Partition(0).ReadBatch(nil, 0, 100)
	}
	a, b := read(), read()
	for i := range a {
		ba, bb := a[i].Value.(*Bid), b[i].Value.(*Bid)
		if *ba != *bb {
			t.Fatalf("record %d differs: %+v vs %+v", i, ba, bb)
		}
	}
}

func TestGenerateSelectedTopics(t *testing.T) {
	broker := mq.NewBroker()
	counts, err := Generate(broker, GenConfig{Rate: 1000, Duration: time.Second, Partitions: 1, Seed: 1, Topics: []string{TopicBids}})
	if err != nil {
		t.Fatal(err)
	}
	if counts[TopicPersons] != 0 || counts[TopicBids] == 0 {
		t.Fatalf("counts = %v", counts)
	}
	if _, err := broker.Topic(TopicPersons); err == nil {
		t.Fatal("persons topic should not exist")
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	if _, err := Generate(mq.NewBroker(), GenConfig{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestHotRatioSkew(t *testing.T) {
	broker := mq.NewBroker()
	if _, err := Generate(broker, GenConfig{Rate: 10000, Duration: time.Second, Partitions: 1, Seed: 3, HotRatio: 0.3, Topics: []string{TopicBids}}); err != nil {
		t.Fatal(err)
	}
	topic, _ := broker.Topic(TopicBids)
	recs := topic.Partition(0).ReadBatch(nil, 0, 1<<20)
	hot := 0
	for _, r := range recs {
		if r.Value.(*Bid).Auction == hotAuctionID {
			hot++
		}
	}
	ratio := float64(hot) / float64(len(recs))
	if ratio < 0.25 || ratio > 0.36 {
		t.Fatalf("hot ratio = %v, want ~0.30", ratio)
	}
}

func TestEventRoundTrips(t *testing.T) {
	vals := []wire.Value{
		&Person{ID: 1, Name: "n", Email: "e", CreditCard: "c", City: "x", State: "OR", DateTime: 5, Extra: "z"},
		&Auction{ID: 2, ItemName: "i", Description: "d", InitialBid: 3, Reserve: 4, DateTime: 5, Expires: 6, Seller: 7, Category: 10, Extra: "y"},
		&Bid{Auction: 1, Bidder: 2, Price: 3, Channel: "ch", URL: "u", DateTime: 4, Extra: "x"},
		&Q1Result{Auction: 1, Bidder: 2, PriceEur: 3, DateTime: 4},
		&Q3Result{Name: "n", City: "c", State: "OR", Auction: 9},
		&Q8Result{Person: 1, Name: "n", Auction: 2, Window: 3},
		&Q12Result{Bidder: 1, Count: 2, Window: 3},
	}
	for _, v := range vals {
		enc := wire.NewEncoder(nil)
		wire.EncodeValue(enc, v)
		got, err := wire.DecodeValue(wire.NewDecoder(enc.Bytes()))
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if got.TypeID() != v.TypeID() {
			t.Fatalf("%T: type id %d != %d", v, got.TypeID(), v.TypeID())
		}
	}
}

func TestBuildQueries(t *testing.T) {
	for _, q := range Queries {
		job, err := Build(q, QueryConfig{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, err := job.Validate(4); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if job.IsCyclic() {
			t.Fatalf("%s should be acyclic", q)
		}
		if len(TopicsFor(q)) == 0 {
			t.Fatalf("%s: no topics", q)
		}
	}
	if _, err := Build("q99", QueryConfig{}); err == nil {
		t.Fatal("unknown query should fail")
	}
	if TopicsFor("q99") != nil {
		t.Fatal("unknown query topics should be nil")
	}
}

// fakeCtx is a minimal Context for direct operator unit tests.
type fakeCtx struct {
	now     int64
	emitted []struct {
		edge int
		key  uint64
		v    wire.Value
	}
	timer int64
	wm    int64
	kv    *statestore.Store
}

func (f *fakeCtx) Emit(key uint64, v wire.Value) { f.EmitTo(0, key, v) }
func (f *fakeCtx) EmitTo(edge int, key uint64, v wire.Value) {
	f.emitted = append(f.emitted, struct {
		edge int
		key  uint64
		v    wire.Value
	}{edge, key, v})
}
func (f *fakeCtx) Index() int         { return 0 }
func (f *fakeCtx) Parallelism() int   { return 1 }
func (f *fakeCtx) NowNS() int64       { return f.now }
func (f *fakeCtx) SetTimer(at int64)  { f.timer = at }
func (f *fakeCtx) WatermarkNS() int64 { return f.wm }
func (f *fakeCtx) KeyedState() *statestore.Store {
	if f.kv == nil {
		f.kv = statestore.New()
	}
	return f.kv
}

func TestQ1MapConversion(t *testing.T) {
	ctx := &fakeCtx{}
	(&q1Map{}).OnEvent(ctx, core.Event{Key: 5, Value: &Bid{Auction: 5, Bidder: 2, Price: 1000}})
	if len(ctx.emitted) != 1 {
		t.Fatal("no output")
	}
	r := ctx.emitted[0].v.(*Q1Result)
	if r.PriceEur != 908 {
		t.Fatalf("price = %d, want 908", r.PriceEur)
	}
}

func TestPersonFilter(t *testing.T) {
	ctx := &fakeCtx{}
	personFilter{}.OnEvent(ctx, core.Event{Value: &Person{ID: 1, State: "OR"}})
	personFilter{}.OnEvent(ctx, core.Event{Value: &Person{ID: 2, State: "NY"}})
	if len(ctx.emitted) != 1 || ctx.emitted[0].key != 1 {
		t.Fatalf("emitted = %+v", ctx.emitted)
	}
}

func TestAuctionFilter(t *testing.T) {
	ctx := &fakeCtx{}
	auctionFilter{}.OnEvent(ctx, core.Event{Value: &Auction{ID: 1, Seller: 9, Category: 10}})
	auctionFilter{}.OnEvent(ctx, core.Event{Value: &Auction{ID: 2, Seller: 9, Category: 11}})
	if len(ctx.emitted) != 1 || ctx.emitted[0].key != 9 {
		t.Fatalf("emitted = %+v", ctx.emitted)
	}
}

func TestQ3JoinBothOrders(t *testing.T) {
	// Person first, then auction.
	j := newQ3Join()
	ctx := &fakeCtx{}
	j.OnEvent(ctx, core.Event{Value: &Person{ID: 1, Name: "a", State: "OR"}})
	j.OnEvent(ctx, core.Event{Value: &Auction{ID: 10, Seller: 1, Category: 10}})
	if len(ctx.emitted) != 1 || ctx.emitted[0].v.(*Q3Result).Auction != 10 {
		t.Fatalf("person-first join = %+v", ctx.emitted)
	}
	// Auction first (buffered), then person.
	j2 := newQ3Join()
	ctx2 := &fakeCtx{}
	j2.OnEvent(ctx2, core.Event{Value: &Auction{ID: 11, Seller: 2, Category: 10}})
	if len(ctx2.emitted) != 0 {
		t.Fatal("auction emitted before person arrived")
	}
	j2.OnEvent(ctx2, core.Event{Value: &Person{ID: 2, Name: "b", State: "CA"}})
	if len(ctx2.emitted) != 1 || ctx2.emitted[0].v.(*Q3Result).Auction != 11 {
		t.Fatalf("auction-first join = %+v", ctx2.emitted)
	}
}

func TestQ3JoinSnapshotRestore(t *testing.T) {
	j := newQ3Join()
	ctx := &fakeCtx{}
	j.OnEvent(ctx, core.Event{Value: &Person{ID: 1, Name: "a", State: "OR", City: "P"}})
	j.OnEvent(ctx, core.Event{Value: &Auction{ID: 11, Seller: 2, Category: 10}})
	// The join state lives in the keyed backend: snapshot and restore it
	// the way the engine does.
	enc := wire.NewEncoder(nil)
	ctx.KeyedState().SnapshotFull(enc)
	j2 := newQ3Join()
	ctx2 := &fakeCtx{}
	if err := ctx2.KeyedState().Restore(wire.NewDecoder(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Restored state: auction 11 still pending for person 2.
	j2.OnEvent(ctx2, core.Event{Value: &Person{ID: 2, Name: "b", State: "ID"}})
	if len(ctx2.emitted) != 1 || ctx2.emitted[0].v.(*Q3Result).Auction != 11 {
		t.Fatalf("restored join lost pending auction: %+v", ctx2.emitted)
	}
	// Restored person 1 must join new auctions.
	j2.OnEvent(ctx2, core.Event{Value: &Auction{ID: 12, Seller: 1, Category: 10}})
	if len(ctx2.emitted) != 2 {
		t.Fatalf("restored join lost person: %+v", ctx2.emitted)
	}
}

// hotSellerAppends feeds n category-10 auctions for seller, none of whose
// person has arrived, into j: each lands on the seller's pending list.
func hotSellerAppends(j *q3Join, ctx *fakeCtx, seller uint64, next *uint64, n int) {
	a := &Auction{Seller: seller, Category: 10}
	ev := core.Event{Value: a}
	for i := 0; i < n; i++ {
		a.ID = *next
		*next++
		j.OnEvent(ctx, ev)
	}
}

// TestQ3HotSellerAllocs is the allocation gate on q3's skew regime: with
// one seller's pending list at 7,500 entries, another pending auction
// costs at most 0.05 allocations amortized — the list is appended to, not
// decoded and re-encoded. The person's arrival then joins every one.
func TestQ3HotSellerAllocs(t *testing.T) {
	const (
		seller  = 2003
		prefill = 7500
		batch   = 100 // appends per measured run: AllocsPerRun floors to whole allocations
		runs    = 20
	)
	j := newQ3Join()
	ctx := &fakeCtx{}
	next := uint64(1)
	hotSellerAppends(j, ctx, seller, &next, prefill)
	perRun := testing.AllocsPerRun(runs, func() { hotSellerAppends(j, ctx, seller, &next, batch) })
	if perAppend := perRun / batch; perAppend > 0.05 {
		t.Fatalf("pending-auction append costs %.2f allocs at a %d-entry list, want <= 0.05", perAppend, prefill)
	}
	j.OnEvent(ctx, core.Event{Value: &Person{ID: seller, Name: "hot", State: "OR"}})
	if want := int(next - 1); len(ctx.emitted) != want {
		t.Fatalf("person joined %d pending auctions, want %d", len(ctx.emitted), want)
	}
	for i, e := range ctx.emitted {
		if got := e.v.(*Q3Result).Auction; got != uint64(i+1) {
			t.Fatalf("join result %d names auction %d, want %d (arrival order)", i, got, i+1)
		}
	}
	if _, ok := ctx.KeyedState().Get(q3AuctionKey(seller)); ok {
		t.Fatal("pending list kept after the person joined it")
	}
}

// BenchmarkQ3JoinHotSeller builds one seller's pending list of n auctions
// from empty and reports the mean cost of one append; it stays flat in n
// when an arrival costs O(1).
func BenchmarkQ3JoinHotSeller(b *testing.B) {
	for _, n := range []int{1000, 7500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			j := newQ3Join()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ctx := &fakeCtx{kv: statestore.New()}
				next := uint64(1)
				b.StartTimer()
				hotSellerAppends(j, ctx, 2003, &next, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/append")
		})
	}
}

func TestQ8JoinWindowing(t *testing.T) {
	j := newQ8Join(time.Second)
	ctx := &fakeCtx{now: int64(100 * time.Millisecond)}
	j.OnEvent(ctx, core.Event{Value: &Person{ID: 1, Name: "a"}})
	j.OnEvent(ctx, core.Event{Value: &Auction{ID: 10, Seller: 1}})
	if len(ctx.emitted) != 1 {
		t.Fatalf("same-window join failed: %+v", ctx.emitted)
	}
	// Next window: person from previous window must not match.
	ctx.now = int64(1500 * time.Millisecond)
	j.OnEvent(ctx, core.Event{Value: &Auction{ID: 11, Seller: 1}})
	if len(ctx.emitted) != 1 {
		t.Fatal("cross-window join must not emit")
	}
	// Timer expiry drops old windows: the backend holds one entry per
	// window (a person in the first, a pending auction in the second).
	if n := ctx.KeyedState().Len(); n != 2 {
		t.Fatalf("backend entries = %d", n)
	}
	j.OnTimer(ctx, ctx.now)
	if n := ctx.KeyedState().Len(); n != 1 {
		t.Fatalf("after expiry backend entries = %d", n)
	}
}

func TestQ8SnapshotRestore(t *testing.T) {
	j := newQ8Join(time.Second)
	ctx := &fakeCtx{now: 1}
	j.OnEvent(ctx, core.Event{Value: &Person{ID: 1, Name: "a"}})
	j.OnEvent(ctx, core.Event{Value: &Auction{ID: 5, Seller: 9}})
	enc := wire.NewEncoder(nil)
	ctx.KeyedState().SnapshotFull(enc)
	j2 := newQ8Join(time.Second)
	ctx2 := &fakeCtx{now: 2}
	if err := ctx2.KeyedState().Restore(wire.NewDecoder(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	j2.OnEvent(ctx2, core.Event{Value: &Person{ID: 9, Name: "b"}})
	if len(ctx2.emitted) != 1 || ctx2.emitted[0].v.(*Q8Result).Auction != 5 {
		t.Fatalf("restored window state lost auction: %+v", ctx2.emitted)
	}
}

func TestQ12RunningCount(t *testing.T) {
	c := newQ12Count(time.Second)
	ctx := &fakeCtx{now: 10}
	for i := 0; i < 3; i++ {
		c.OnEvent(ctx, core.Event{Value: &Bid{Bidder: 7}})
	}
	if len(ctx.emitted) != 3 {
		t.Fatalf("running count must emit per record: %d", len(ctx.emitted))
	}
	if got := ctx.emitted[2].v.(*Q12Result).Count; got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	// Window rollover resets counting.
	ctx.now = int64(2 * time.Second)
	c.OnEvent(ctx, core.Event{Value: &Bid{Bidder: 7}})
	if got := ctx.emitted[3].v.(*Q12Result).Count; got != 1 {
		t.Fatalf("new window count = %d, want 1", got)
	}
	c.OnTimer(ctx, ctx.now)
	if n := ctx.KeyedState().Len(); n != 1 {
		t.Fatalf("backend entries after expiry = %d", n)
	}
}

func TestQ12SnapshotRestore(t *testing.T) {
	c := newQ12Count(time.Second)
	ctx := &fakeCtx{now: 10}
	c.OnEvent(ctx, core.Event{Value: &Bid{Bidder: 7}})
	c.OnEvent(ctx, core.Event{Value: &Bid{Bidder: 7}})
	enc := wire.NewEncoder(nil)
	ctx.KeyedState().SnapshotFull(enc)
	c2 := newQ12Count(time.Second)
	ctx2 := &fakeCtx{now: 20}
	if err := ctx2.KeyedState().Restore(wire.NewDecoder(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	c2.OnEvent(ctx2, core.Event{Value: &Bid{Bidder: 7}})
	if got := ctx2.emitted[0].v.(*Q12Result).Count; got != 3 {
		t.Fatalf("restored count = %d, want 3", got)
	}
}

func TestCountSink(t *testing.T) {
	s := NewCountSink()
	ctx := &fakeCtx{}
	s.OnEvent(ctx, core.Event{})
	s.OnEvent(ctx, core.Event{})
	enc := wire.NewEncoder(nil)
	s.Snapshot(enc)
	s2 := NewCountSink()
	if err := s2.Restore(wire.NewDecoder(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if s2.Count != 2 {
		t.Fatalf("restored count = %d", s2.Count)
	}
}

func TestBidKeyBy(t *testing.T) {
	ctx := &fakeCtx{}
	bidKeyBy{}.OnEvent(ctx, core.Event{Key: 1, Value: &Bid{Auction: 1, Bidder: 42}})
	if ctx.emitted[0].key != 42 {
		t.Fatalf("rekeyed to %d, want 42", ctx.emitted[0].key)
	}
}
