package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"checkmate/internal/metrics"
	"checkmate/internal/mq"
	"checkmate/internal/objstore"
	"checkmate/internal/recovery"
	"checkmate/internal/wire"
)

// ---- test payload and operators ----

type intVal struct{ N uint64 }

func (v *intVal) TypeID() uint16              { return 910 }
func (v *intVal) MarshalWire(e *wire.Encoder) { e.Uvarint(v.N) }

func init() {
	wire.RegisterType(910, func(d *wire.Decoder) (wire.Value, error) {
		return &intVal{N: d.Uvarint()}, d.Err()
	})
}

// doubler is a stateless map operator multiplying values by 2.
type doubler struct{}

func (doubler) OnEvent(ctx Context, ev Event) {
	v := ev.Value.(*intVal)
	ctx.Emit(ev.Key, &intVal{N: v.N * 2})
}
func (doubler) Snapshot(enc *wire.Encoder)      {}
func (doubler) Restore(dec *wire.Decoder) error { return nil }

// keyedSum is a stateful aggregator: per-key sums, used as a sink to verify
// exactly-once processing (its final state must match across failure-free
// and failure runs).
type keyedSum struct {
	mu    sync.Mutex
	sums  map[uint64]uint64
	total uint64
}

func newKeyedSum() *keyedSum { return &keyedSum{sums: make(map[uint64]uint64)} }

func (k *keyedSum) OnEvent(ctx Context, ev Event) {
	v := ev.Value.(*intVal)
	k.mu.Lock()
	k.sums[ev.Key] += v.N
	k.total += v.N
	k.mu.Unlock()
}

func (k *keyedSum) Snapshot(enc *wire.Encoder) {
	k.mu.Lock()
	defer k.mu.Unlock()
	enc.Uvarint(uint64(len(k.sums)))
	for key, sum := range k.sums {
		enc.Uvarint(key)
		enc.Uvarint(sum)
	}
	enc.Uvarint(k.total)
}

func (k *keyedSum) Restore(dec *wire.Decoder) error {
	n := int(dec.Uvarint())
	k.mu.Lock()
	defer k.mu.Unlock()
	k.sums = make(map[uint64]uint64, n)
	for i := 0; i < n; i++ {
		key := dec.Uvarint()
		k.sums[key] = dec.Uvarint()
	}
	k.total = dec.Uvarint()
	return dec.Err()
}

func (k *keyedSum) snapshotTotals() (map[uint64]uint64, uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	cp := make(map[uint64]uint64, len(k.sums))
	for key, sum := range k.sums {
		cp[key] = sum
	}
	return cp, k.total
}

// ---- harness helpers ----

type testEnv struct {
	broker   *mq.Broker
	store    *objstore.Store
	recorder *metrics.Recorder
	sinks    []*keyedSum
	records  uint64
	workers  int
}

// buildEnv creates a broker with `records` records spread over `workers`
// partitions at the given rate, plus a source->map->sink job.
func buildEnv(t testing.TB, workers int, records int, rate float64) (*testEnv, *JobSpec) {
	t.Helper()
	env := &testEnv{
		broker:   mq.NewBroker(),
		store:    objstore.New(objstore.Config{PutLatency: 200 * time.Microsecond}),
		recorder: metrics.NewRecorder(time.Now(), 30*time.Second, time.Second),
		workers:  workers,
		records:  uint64(records),
		sinks:    make([]*keyedSum, workers),
	}
	topic, err := env.broker.CreateTopic("nums", workers)
	if err != nil {
		t.Fatal(err)
	}
	perPart := records / workers
	for p := 0; p < workers; p++ {
		for i := 0; i < perPart; i++ {
			sched := int64(float64(i) / rate * float64(time.Second))
			topic.Partition(p).Append(sched, uint64(p*perPart+i), &intVal{N: 1})
		}
	}
	env.records = uint64(perPart * workers)
	job := &JobSpec{
		Name: "test",
		Ops: []OpSpec{
			{Name: "src", Source: &SourceSpec{Topic: "nums"}},
			{Name: "map", New: func(int) Operator { return doubler{} }},
			{Name: "sink", Sink: true, New: func(idx int) Operator {
				s := newKeyedSum()
				env.sinks[idx] = s
				return s
			}},
		},
		Edges: []EdgeSpec{
			{From: 0, To: 1, Part: Forward},
			{From: 1, To: 2, Part: Hash},
		},
	}
	return env, job
}

func (env *testEnv) config(p Protocol) Config {
	return Config{
		Workers:            env.workers,
		Protocol:           p,
		CheckpointInterval: 60 * time.Millisecond,
		ChannelCap:         64,
		Broker:             env.broker,
		Store:              env.store,
		Recorder:           env.recorder,
		DetectionDelay:     10 * time.Millisecond,
		PollInterval:       time.Millisecond,
		CatchUpLag:         50 * time.Millisecond,
		Seed:               42,
	}
}

// waitDrained waits until all records were ingested and the sinks have seen
// a stable count for a while.
func waitDrained(t testing.TB, e *Engine, env *testEnv, deadline time.Duration) {
	t.Helper()
	limit := time.Now().Add(deadline)
	var lastCount uint64
	stableSince := time.Now()
	for time.Now().Before(limit) {
		count := env.recorder.SinkCount()
		if count != lastCount {
			lastCount = count
			stableSince = time.Now()
		}
		if e.SourceBacklog() == 0 && time.Since(stableSince) > 150*time.Millisecond && count > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("pipeline did not drain in %v (sink count %d)", deadline, env.recorder.SinkCount())
}

// collectSums merges the final per-key sums across sink instances.
func collectSums(e *Engine, workers int) (map[uint64]uint64, uint64) {
	merged := make(map[uint64]uint64)
	var total uint64
	for idx := 0; idx < workers; idx++ {
		op := e.OperatorState(2, idx)
		if op == nil {
			continue
		}
		sums, tot := op.(*keyedSum).snapshotTotals()
		for k, v := range sums {
			merged[k] = v
		}
		total += tot
	}
	return merged, total
}

// ---- protocols under test (duplicated minimally to avoid an import cycle
// with internal/protocol) ----

type nullProto struct {
	kind Kind
	name string
}

func (p nullProto) Name() string       { return p.name }
func (p nullProto) Kind() Kind         { return p.kind }
func (p nullProto) Features() Features { return Features{} }
func (p nullProto) NewController(self, total int, interval time.Duration, seed int64) Controller {
	if p.kind == KindUncoordinated || p.kind == KindCIC {
		return &testIntervalCtrl{interval: interval, next: interval / 2}
	}
	return nil
}

// testIntervalCtrl is a minimal local-interval controller.
type testIntervalCtrl struct {
	interval time.Duration
	next     time.Duration
}

func (c *testIntervalCtrl) OnSend(to int, enc *wire.Encoder)        {}
func (c *testIntervalCtrl) OnReceive(from int, piggy []byte) bool   { return false }
func (c *testIntervalCtrl) ShouldCheckpoint(now time.Duration) bool { return now >= c.next }
func (c *testIntervalCtrl) OnCheckpoint(forced bool)                { c.next += c.interval }
func (c *testIntervalCtrl) Snapshot(enc *wire.Encoder)              { enc.Varint(int64(c.next)) }
func (c *testIntervalCtrl) Restore(dec *wire.Decoder) error {
	c.next = time.Duration(dec.Varint())
	return dec.Err()
}

// ---- tests ----

func TestJobValidation(t *testing.T) {
	cases := []struct {
		name string
		job  JobSpec
	}{
		{"empty", JobSpec{Name: "j"}},
		{"no name", JobSpec{Name: "j", Ops: []OpSpec{{}}}},
		{"source with logic", JobSpec{Name: "j", Ops: []OpSpec{{Name: "s", Source: &SourceSpec{Topic: "t"}, New: func(int) Operator { return doubler{} }}}}},
		{"no factory", JobSpec{Name: "j", Ops: []OpSpec{{Name: "x"}}}},
		{"edge out of range", JobSpec{Name: "j", Ops: []OpSpec{{Name: "s", Source: &SourceSpec{Topic: "t"}}}, Edges: []EdgeSpec{{From: 0, To: 5}}}},
		{"edge into source", JobSpec{Name: "j",
			Ops:   []OpSpec{{Name: "s", Source: &SourceSpec{Topic: "t"}}, {Name: "s2", Source: &SourceSpec{Topic: "t"}}},
			Edges: []EdgeSpec{{From: 0, To: 1}}}},
		{"forward parallelism mismatch", JobSpec{Name: "j",
			Ops:   []OpSpec{{Name: "s", Source: &SourceSpec{Topic: "t"}, Parallelism: 2}, {Name: "m", Parallelism: 3, New: func(int) Operator { return doubler{} }}},
			Edges: []EdgeSpec{{From: 0, To: 1, Part: Forward}}}},
		{"no inputs", JobSpec{Name: "j", Ops: []OpSpec{{Name: "m", New: func(int) Operator { return doubler{} }}}}},
	}
	for _, tc := range cases {
		if _, err := tc.job.Validate(4); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestIsCyclic(t *testing.T) {
	acyclic := JobSpec{Ops: make([]OpSpec, 3), Edges: []EdgeSpec{{From: 0, To: 1}, {From: 1, To: 2}, {From: 0, To: 2}}}
	if acyclic.IsCyclic() {
		t.Error("acyclic graph reported cyclic")
	}
	cyclic := JobSpec{Ops: make([]OpSpec, 3), Edges: []EdgeSpec{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 1, Feedback: true}}}
	if !cyclic.IsCyclic() {
		t.Error("cyclic graph reported acyclic")
	}
}

func TestCoordinatedRejectsCycles(t *testing.T) {
	env, _ := buildEnv(t, 2, 100, 1000)
	job := &JobSpec{
		Name: "cyclic",
		Ops: []OpSpec{
			{Name: "src", Source: &SourceSpec{Topic: "nums"}},
			{Name: "loop", New: func(int) Operator { return doubler{} }},
		},
		Edges: []EdgeSpec{
			{From: 0, To: 1, Part: Forward},
			{From: 1, To: 1, Part: Hash, Feedback: true},
		},
	}
	if _, err := NewEngine(env.config(nullProto{KindCoordinated, "COOR"}), job); err == nil {
		t.Fatal("COOR should reject cyclic jobs")
	}
	if _, err := NewEngine(env.config(nullProto{KindUncoordinated, "UNC"}), job); err != nil {
		t.Fatalf("UNC should accept cyclic jobs: %v", err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	enc := wire.NewEncoder(nil)
	m := Message{Kind: msgData, Edge: 3, FromIdx: 1, ToIdx: 2, Seq: 77, UID: 0xabc, Key: 9,
		SchedNS: -5, Value: &intVal{N: 4}, Piggyback: []byte{1, 2}}
	pb, prb := encodeMessage(enc, &m)
	if pb <= 0 || prb <= 0 {
		t.Fatalf("byte split = %d/%d", pb, prb)
	}
	got, err := decodeMessage(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 77 || got.UID != 0xabc || got.Key != 9 || got.SchedNS != -5 ||
		got.Value.(*intVal).N != 4 || len(got.Piggyback) != 2 {
		t.Fatalf("decoded = %+v", got)
	}
	enc.Reset()
	mk := Message{Kind: msgMarker, Edge: 1, FromIdx: 0, ToIdx: 0, Round: 5}
	pb, prb = encodeMessage(enc, &mk)
	if pb != 0 || prb <= 0 {
		t.Fatalf("marker byte split = %d/%d", pb, prb)
	}
	got, err = decodeMessage(enc.Bytes())
	if err != nil || got.Round != 5 || got.Kind != msgMarker {
		t.Fatalf("marker decode = %+v, %v", got, err)
	}
	if _, err := decodeMessage([]byte{99}); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

func TestUIDDeterminism(t *testing.T) {
	if sourceUID("t", 1, 5) != sourceUID("t", 1, 5) {
		t.Fatal("sourceUID not deterministic")
	}
	if sourceUID("t", 1, 5) == sourceUID("t", 1, 6) {
		t.Fatal("sourceUID collision on adjacent offsets")
	}
	if deriveUID(1, 2, 0) == deriveUID(1, 2, 1) {
		t.Fatal("deriveUID collision on emit index")
	}
}

// runProtocol runs buildEnv's job under kind, optionally crashing worker 1
// mid-run. Before the crash of a logging kind (UNC, CIC) it checks
// FindLine against its FindLineRDG oracle on the metas reported so far.
func runProtocol(t *testing.T, kind Kind, withFailure bool) (map[uint64]uint64, uint64, metrics.Summary) {
	t.Helper()
	env, job := buildEnv(t, 2, 3000, 12000)
	eng, err := NewEngine(env.config(nullProto{kind, kind.String()}), job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if withFailure {
		time.Sleep(120 * time.Millisecond)
		if kind == KindUncoordinated || kind == KindCIC {
			checkFindLineOracle(t, eng)
		}
		eng.InjectFailure(1)
	}
	waitDrained(t, eng, env, 15*time.Second)
	eng.Stop()
	sums, total := collectSums(eng, env.workers)
	return sums, total, env.recorder.Summarize(kind == KindCoordinated)
}

// checkFindLineOracle fails t unless FindLine and the rollback-dependency
// graph's FindLineRDG choose the same recovery line with the same invalid
// count over the checkpoint metas eng has reported so far, and returns
// FindLine's result.
func checkFindLineOracle(t *testing.T, eng *Engine) recovery.Result {
	t.Helper()
	metas := eng.CheckpointMetas()
	got := recovery.FindLine(eng.total, eng.Channels(), metas)
	want := recovery.FindLineRDG(eng.total, eng.Channels(), metas)
	if !reflect.DeepEqual(got.Line, want.Line) || got.Invalid != want.Invalid {
		t.Fatalf("FindLine = %v (%d invalid), FindLineRDG = %v (%d invalid) over %d metas",
			got.Line, got.Invalid, want.Line, want.Invalid, len(metas))
	}
	return got
}

func TestFailureFreeAllProtocols(t *testing.T) {
	for _, kind := range []Kind{KindNone, KindCoordinated, KindUncoordinated, KindCIC} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			sums, total, sum := runProtocol(t, kind, false)
			if want := uint64(3000 * 2); total != want {
				t.Fatalf("total = %d, want %d", total, want)
			}
			if len(sums) != 3000 {
				t.Fatalf("distinct keys = %d, want 3000", len(sums))
			}
			for k, v := range sums {
				if v != 2 {
					t.Fatalf("key %d sum = %d, want 2", k, v)
				}
			}
			if sum.SinkCount < 3000 {
				t.Fatalf("sink count = %d", sum.SinkCount)
			}
			if kind != KindNone && sum.TotalCheckpoints == 0 {
				t.Fatalf("%s produced no checkpoints", kind)
			}
		})
	}
}

func TestExactlyOnceUnderFailure(t *testing.T) {
	for _, kind := range []Kind{KindCoordinated, KindUncoordinated, KindCIC} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			sums, total, sum := runProtocol(t, kind, true)
			if want := uint64(3000 * 2); total != want {
				t.Fatalf("total = %d, want %d (exactly-once violated; summary %+v)", total, want, sum)
			}
			for k, v := range sums {
				if v != 2 {
					t.Fatalf("key %d sum = %d, want 2", k, v)
				}
			}
			if sum.Failures != 1 {
				t.Fatalf("failures = %d", sum.Failures)
			}
			if sum.RestartTime <= 0 {
				t.Fatal("restart time not recorded")
			}
		})
	}
}

func TestGapRecoveryLosesData(t *testing.T) {
	_, total, sum := runProtocol(t, KindNone, true)
	// Gap recovery must not duplicate anything, and almost surely loses
	// some records (in-flight at crash time). Only assert no duplication.
	if total > uint64(3000*2) {
		t.Fatalf("gap recovery duplicated records: total = %d", total)
	}
	if sum.Failures != 1 {
		t.Fatalf("failures = %d", sum.Failures)
	}
}

func TestCheckpointOverheadAccounting(t *testing.T) {
	_, _, sum := runProtocol(t, KindUncoordinated, false)
	if sum.OverheadRatio < 1.0 {
		t.Fatalf("overhead ratio = %v", sum.OverheadRatio)
	}
	if sum.PayloadBytes == 0 {
		t.Fatal("no payload bytes accounted")
	}
	if sum.AvgCheckpointTime <= 0 {
		t.Fatal("no checkpoint durations recorded")
	}
}

func TestChannelKeyPacking(t *testing.T) {
	seen := make(map[uint64]bool)
	for e := 0; e < 3; e++ {
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				k := channelKey(e, i, j)
				if seen[k] {
					t.Fatalf("duplicate channel key %d", k)
				}
				seen[k] = true
			}
		}
	}
}

func TestEngineDoubleStartStop(t *testing.T) {
	env, job := buildEnv(t, 2, 100, 10000)
	eng, err := NewEngine(env.config(nullProto{KindNone, "NONE"}), job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err == nil {
		t.Fatal("second Start should fail")
	}
	eng.Stop()
	eng.Stop() // idempotent
}

func TestInboxBasics(t *testing.T) {
	in := newInbox([]int{2, 2})
	if !in.push(0, []byte{1}, 1) || !in.push(1, []byte{2}, 1) {
		t.Fatal("push failed")
	}
	data, n, ch, ok := in.pop()
	if !ok || len(data) != 1 || n != 1 {
		t.Fatalf("pop = %v %d %d %v", data, n, ch, ok)
	}
	in.setBlocked(1, true)
	if _, _, _, ok := in.pop(); ok {
		t.Fatal("pop delivered from blocked channel")
	}
	if in.pending() != 0 {
		t.Fatalf("pending = %d (blocked excluded)", in.pending())
	}
	in.setBlocked(1, false)
	if _, _, _, ok := in.pop(); !ok {
		t.Fatal("pop after unblock failed")
	}
	in.close()
	if in.push(0, []byte{3}, 1) {
		t.Fatal("push after close should fail")
	}
}

func TestInboxBackpressure(t *testing.T) {
	in := newInbox([]int{1})
	in.push(0, []byte{1}, 1)
	done := make(chan bool, 1)
	go func() {
		done <- in.push(0, []byte{2}, 1) // blocks until pop
	}()
	select {
	case <-done:
		t.Fatal("push should have blocked on full queue")
	case <-time.After(20 * time.Millisecond):
	}
	in.pop()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("blocked push failed after pop")
		}
	case <-time.After(time.Second):
		t.Fatal("blocked push never completed")
	}
}

func TestInboxCloseWakesBlockedSender(t *testing.T) {
	in := newInbox([]int{1})
	in.push(0, []byte{1}, 1)
	done := make(chan bool, 1)
	go func() { done <- in.push(0, []byte{2}, 1) }()
	time.Sleep(10 * time.Millisecond)
	in.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("push on closed inbox should return false")
		}
	case <-time.After(time.Second):
		t.Fatal("close did not wake blocked sender")
	}
}

func TestInboxForceIgnoresCap(t *testing.T) {
	in := newInbox([]int{1})
	for i := 0; i < 10; i++ {
		in.force(0, []byte{byte(i)}, 1)
	}
	count := 0
	for {
		if _, _, _, ok := in.pop(); !ok {
			break
		}
		count++
	}
	if count != 10 {
		t.Fatalf("force-loaded %d messages, want 10", count)
	}
}

func TestPartitioningString(t *testing.T) {
	for p, want := range map[Partitioning]string{Forward: "forward", Hash: "hash", Broadcast: "broadcast"} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
	if Partitioning(9).String() == "" {
		t.Error("unknown partitioning should still format")
	}
}

func TestKindProperties(t *testing.T) {
	if !KindCoordinated.NeedsAlignment() || KindUncoordinated.NeedsAlignment() {
		t.Error("alignment flags wrong")
	}
	if !KindUncoordinated.NeedsLogging() || !KindCIC.NeedsLogging() || KindCoordinated.NeedsLogging() {
		t.Error("logging flags wrong")
	}
	names := map[Kind]string{KindNone: "NONE", KindCoordinated: "COOR", KindUncoordinated: "UNC", KindCIC: "CIC"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() != "UNKNOWN" {
		t.Error("unknown kind string")
	}
}

func TestSummaryHasTimeline(t *testing.T) {
	_, _, sum := runProtocol(t, KindCoordinated, false)
	if len(sum.Timeline.Points) == 0 {
		t.Fatal("no timeline points recorded")
	}
	if sum.Timeline.P50 <= 0 {
		t.Fatal("no overall p50")
	}
	_ = fmt.Sprintf("%v", sum.Timeline.P50)
}
