package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"checkmate/internal/cluster"
	"checkmate/internal/core"
	"checkmate/internal/metrics"
	"checkmate/internal/mq"
	"checkmate/internal/nexmark"
	"checkmate/internal/objstore"
	"checkmate/internal/protocol"
	"checkmate/internal/recovery"
	"checkmate/internal/trace"
	"checkmate/internal/wal"
)

// Engine settings shared by every workload. They are constants, not
// flags: a benchmark result names a workload and a seed, nothing else.
const (
	workers         = 2
	batchMaxRecords = 64
	netWorkFactor   = 4
	pollInterval    = 2 * time.Millisecond
	storeLatency    = 2 * time.Millisecond // put and get, plus 1 ns/B
	drainCkptEvery  = 250 * time.Millisecond
	pacedCkptEvery  = 500 * time.Millisecond
	detectionDelay  = 100 * time.Millisecond
	closedWindow    = 50 * time.Millisecond // a closed drain's whole input is due by then
	drainTimeout    = 120 * time.Second
	// engineSeed drives the engine's own randomness (checkpoint jitter,
	// store fault dice). It is not the input seed: --seed changes what the
	// broker holds and nothing about the engine reading it.
	engineSeed = 1
)

// workload is one engine configuration. Every workload is measured the
// same way: closed drains at saturation, then one open-loop run of the
// same records with injected failures.
type workload struct {
	name    string
	query   string
	proto   string
	hot     float64
	durable bool
	delta   bool
	// records is the input size of one drain and of the paced run.
	records int
	// stateful says the query keeps keyed state, for the budget table.
	stateful bool
}

// The four workloads. BENCHMARK.json and README.md say why each exists;
// in short, each stresses layers the previous one leaves idle.
var workloads = []workload{
	// The data plane alone: wire, mq, the core exchange. Logging, WAL and
	// keyed state are idle, so a change to them must show no change here.
	{name: "q1-coor", query: "q1", proto: "COOR", records: 2_000_000},
	// The same records, logged and made durable: msglog, wal, dedup and
	// the disk object store on the write side.
	{name: "q1-unc-durable", query: "q1", proto: "UNC", durable: true, records: 1_000_000},
	// Keyed state under skew: statestore put/get, capture, delta uploads
	// and COOR alignment with one hot partition.
	{name: "q3-coor-skew", query: "q3", proto: "COOR", hot: 0.1, delta: true, records: 1_000_000, stateful: true},
	// The same layers read instead of written: its failure phase fetches,
	// restores, replays the log and drops duplicates.
	{name: "q3-unc-failures", query: "q3", proto: "UNC", records: 1_000_000, stateful: true},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizing scales a run. The committed numbers use fullSizing; the smoke
// test shrinks it so all four workloads finish in seconds.
type sizing struct {
	// recordScale multiplies every workload's record count.
	recordScale float64
	// pacedDur is the length of the open-loop schedule; the paced rate is
	// records / pacedDur.
	pacedDur time.Duration
	// failures is how many times worker 0 crashes during the paced run.
	failures int
	// minDrains is the least number of measured drains whatever --seconds.
	minDrains int
	// setups is how many times set-up is repeated for setup_s.
	setups int
	// replayRecords bounds the layer replay's input.
	replayRecords int
}

var fullSizing = sizing{
	recordScale:   1,
	pacedDur:      10 * time.Second,
	failures:      6,
	minDrains:     4,
	setups:        3,
	replayRecords: 1 << 18,
}

// failureTimes spreads the crashes from a tenth into the paced run over
// 85% of its length, so the last recovery completes while input is still
// arriving. At 10 s and six crashes that is one every 1.42 s: not a
// multiple of the 500 ms checkpoint interval, so successive crashes meet
// the checkpoint cycle at different phases instead of always the same one.
func (sz sizing) failureTimes() (first, interval time.Duration) {
	first = sz.pacedDur / 10
	if sz.failures > 0 {
		interval = sz.pacedDur * 85 / 100 / time.Duration(sz.failures)
	}
	return first, interval
}

// input is one generated broker with its record counts.
type input struct {
	broker *mq.Broker
	counts map[string]uint64
	total  uint64
	genDur time.Duration
}

// generate fills a fresh broker from the seed. A closed input has every
// record due within closedWindow; a paced one spreads them over span.
func (w *workload) generate(seed int64, n int, span time.Duration) (*input, error) {
	t0 := time.Now()
	if w.hot > 0 {
		var err error
		if seed, err = w.coldSellerSeed(seed); err != nil {
			return nil, err
		}
	}
	broker, counts, err := w.fill(seed, n, span)
	if err != nil {
		return nil, err
	}
	in := &input{broker: broker, counts: counts, genDur: time.Since(t0)}
	for _, c := range counts {
		in.total += c
	}
	return in, nil
}

func (w *workload) fill(seed int64, n int, span time.Duration) (*mq.Broker, map[string]uint64, error) {
	broker := mq.NewBroker()
	counts, err := nexmark.Generate(broker, nexmark.GenConfig{
		Rate:       float64(n) / span.Seconds(),
		Duration:   span,
		Partitions: workers,
		HotRatio:   w.hot,
		Seed:       seed,
		Topics:     nexmark.TopicsFor(w.query),
	})
	return broker, counts, err
}

// hotSeller is the person every hot auction names as its seller
// (nexmark's hotPersonID), the 2003rd person generated.
const hotSeller = 2003

// coldSellerSeed maps the run's seed to the generator seed of a skewed q3
// input. Under skew q3 has two regimes, and the generator's dice pick one:
// if the hot seller's own person record passes q3's state filter (3 states
// of 10), every hot auction joins at once; if not, hot auctions pile up in
// one ever-growing pending list that is re-encoded on each arrival, and a
// drain takes twice as long. The workload is the second regime — the one
// that loads statestore — so the seed is stepped, deterministically, until
// the generator's first few thousand events put the hot seller in a state
// the filter drops. Seven seeds of ten are kept as they are.
func (w *workload) coldSellerSeed(seed int64) (int64, error) {
	const prefix = 4*hotSeller + 4 // one person per four events
	for step := int64(0); step < 64; step++ {
		candidate := seed + step<<32
		broker, _, err := w.fill(candidate, prefix, closedWindow)
		if err != nil {
			return 0, err
		}
		topic, err := broker.Topic(nexmark.TopicPersons)
		if err != nil {
			return 0, err
		}
		for _, part := range topic.Partitions {
			for off := uint64(0); ; off++ {
				rec, ok := part.Read(off)
				if !ok {
					break
				}
				if p, isPerson := rec.Value.(*nexmark.Person); isPerson && p.ID == hotSeller {
					switch p.State {
					case "OR", "ID", "CA": // what q3's person filter lets through
					default:
						return candidate, nil
					}
				}
			}
		}
	}
	return 0, fmt.Errorf("%s: no generator seed near %d keeps the hot seller out of the join", w.name, seed)
}

// engineRun is one engine with everything built around it for one run.
type engineRun struct {
	eng    *core.Engine
	rec    *metrics.Recorder
	store  *objstore.Store
	tracer *trace.Tracer
	dir    string // durable temp dir, "" when in memory
	// coordinated selects which duration the recorder reports as the
	// checkpoint time (round time under COOR, local snapshot time otherwise).
	coordinated bool
}

// engineOpts selects what differs between the runs of one workload.
type engineOpts struct {
	proto     core.Protocol // nil = the workload's own
	paced     bool
	traced    bool
	tmpParent string
}

func (w *workload) newEngine(in *input, o engineOpts) (*engineRun, error) {
	proto := o.proto
	if proto == nil {
		p, err := protocol.ByName(w.proto)
		if err != nil {
			return nil, err
		}
		proto = p
	}
	job, err := nexmark.Build(w.query, nexmark.QueryConfig{})
	if err != nil {
		return nil, err
	}
	r := &engineRun{coordinated: proto.Kind() == core.KindCoordinated}
	storeCfg := objstore.Config{
		PutLatency:     storeLatency,
		GetLatency:     storeLatency,
		PerByteLatency: time.Nanosecond,
		Seed:           engineSeed,
	}
	var durability core.DurabilityConfig
	if w.durable && proto.Kind() != core.KindNone {
		r.dir, err = os.MkdirTemp(o.tmpParent, w.name+"-*")
		if err != nil {
			return nil, err
		}
		storeCfg.Dir = filepath.Join(r.dir, "blobs")
		durability = core.DurabilityConfig{Enabled: true, WALDir: filepath.Join(r.dir, "wal"), Sync: wal.SyncGroup}
	}
	if r.store, err = objstore.Open(storeCfg); err != nil {
		r.cleanup()
		return nil, err
	}
	r.rec = metrics.NewRecorder(time.Now(), 2*drainTimeout, time.Second)
	if o.traced {
		r.tracer = trace.New(0)
	}
	cfg := core.Config{
		Trace:              r.tracer,
		Workers:            workers,
		Protocol:           proto,
		CheckpointInterval: drainCkptEvery,
		Broker:             in.broker,
		Store:              r.store,
		Recorder:           r.rec,
		DetectionDelay:     detectionDelay,
		PollInterval:       pollInterval,
		NetWorkFactor:      netWorkFactor,
		DeltaCheckpoints:   w.delta,
		Durability:         durability,
		Batching:           core.BatchingConfig{MaxRecords: batchMaxRecords},
		Seed:               engineSeed,
	}
	if o.paced {
		cfg.CheckpointInterval = pacedCkptEvery
		cfg.Output = core.OutputTransactional
	}
	if r.eng, err = core.NewEngine(cfg, job); err != nil {
		r.cleanup()
		return nil, err
	}
	return r, nil
}

// stop tears the engine down; the durable files stay until cleanup so the
// stopped engine can still be read.
func (r *engineRun) stop() {
	r.eng.Stop()
	r.eng.Close()
}

func (r *engineRun) cleanup() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// drainResult is everything one closed drain yields.
type drainResult struct {
	seconds float64
	input   uint64
	sink    uint64
	mem     memDelta
	cpu     time.Duration
	pool    core.FramePoolStats
	sum     metrics.Summary
	store   objstore.Stats
	wal     wal.Stats
	retries uint64
	keys    int
	keyB    uint64
	phases  []trace.PhaseStat
	events  uint64
}

func (d drainResult) rps() float64 { return float64(d.input) / d.seconds }

// drain runs one closed drain. With want > 0 it ends when the sink count
// reaches want (the oracle's count); with want == 0 it is the oracle
// itself and ends when the count has settled and no input is left.
func (w *workload) drain(in *input, want uint64, o engineOpts) (drainResult, error) {
	r, err := w.newEngine(in, o)
	if err != nil {
		return drainResult{}, err
	}
	defer r.cleanup()
	// Settle the heap so the deltas cover the drain, not what came before.
	runtime.GC()
	m0, cpu0, pool0 := readMem(), cpuTime(), core.ReadFramePoolStats()
	start := time.Now()
	if err := r.eng.Start(); err != nil {
		r.stop()
		return drainResult{}, err
	}
	var last uint64
	lastChange := start
	for {
		now := time.Now()
		count := r.rec.SinkCount()
		if count != last {
			last, lastChange = count, now
		}
		if want > 0 && count >= want {
			break
		}
		// SourceBacklog scans the unread input, so it is asked only once the
		// sink has gone quiet, and never while a measured drain runs.
		if want == 0 && count > 0 && now.Sub(lastChange) > 300*time.Millisecond && r.eng.SourceBacklog() == 0 {
			break
		}
		if now.Sub(start) > drainTimeout {
			r.stop()
			return drainResult{}, fmt.Errorf("%s: drain not complete after %v: sink count %d, want %d", w.name, drainTimeout, count, want)
		}
		time.Sleep(time.Millisecond)
	}
	res := drainResult{seconds: lastChange.Sub(start).Seconds(), input: in.total}
	res.mem, res.cpu = memSince(m0), cpuTime()-cpu0
	pool1 := core.ReadFramePoolStats()
	res.pool = core.FramePoolStats{Gets: pool1.Gets - pool0.Gets, Misses: pool1.Misses - pool0.Misses}
	r.stop()
	res.sink = r.rec.SinkCount()
	res.sum = r.rec.Summarize(r.coordinated)
	res.store, res.wal = r.store.Stats(), r.eng.WALStats()
	res.retries = r.eng.ChaosStats().Retry.Retries
	res.keys, res.keyB = r.eng.StateKeys(), r.eng.StateBytes()
	if r.tracer != nil {
		res.phases, res.events = r.tracer.PhaseStats(), r.tracer.EventCount()
	}
	return res, nil
}

// pacedResult is everything the open-loop failure run yields.
type pacedResult struct {
	attempted, failed uint64
	latMS             []float64 // sink time − due time of every visible result, sorted
	visibleMS         []float64 // visible time − due time, sorted
	restartMS         []float64 // rollback + fetch + replay per failure, in failure order
	planned           int       // failures injected
	restarted         int       // of those, how many the engine came back from
	caughtUp          int       // of those, how many also caught up with the schedule
	maxLag            time.Duration
	sum               metrics.Summary
	store             objstore.Stats
	retries           uint64
	metas             []recovery.Meta
	channels          []recovery.ChannelInfo
	instances         int
}

// paced runs the workload's records on their open-loop schedule while
// worker 0 crashes sz.failures times, and checks the output exactly once.
func (w *workload) paced(in *input, want uint64, sz sizing, tmpParent string) (pacedResult, error) {
	r, err := w.newEngine(in, engineOpts{paced: true, tmpParent: tmpParent})
	if err != nil {
		return pacedResult{}, err
	}
	defer r.cleanup()
	first, interval := sz.failureTimes()
	events, err := cluster.FailurePlan{Domain: cluster.DomainFlapping, Worker: 0, Count: sz.failures, Interval: interval}.Events(workers)
	if err != nil {
		return pacedResult{}, err
	}
	start := time.Now()
	if err := r.eng.Start(); err != nil {
		r.stop()
		return pacedResult{}, err
	}
	stopInject := make(chan struct{})
	var inject sync.WaitGroup
	inject.Add(1)
	go func() {
		defer inject.Done()
		at := start.Add(first)
		for _, ev := range events {
			at = at.Add(ev.AfterPrev)
			select {
			case <-stopInject:
				return
			case <-time.After(time.Until(at)):
				r.eng.InjectWorkerFailure(ev.Workers...)
			}
		}
	}()
	res := pacedResult{attempted: want, planned: len(events)}
	var timeout error
	for {
		if lag := r.eng.MaxSourceLag(); lag > res.maxLag {
			res.maxLag = lag
		}
		elapsed := time.Since(start)
		st := r.eng.OutputStats()
		if elapsed >= sz.pacedDur && st.Visible+st.Pending >= want {
			break
		}
		if elapsed > sz.pacedDur+drainTimeout {
			timeout = fmt.Errorf("%s: paced run not complete %v after its schedule ended: %d visible + %d pending, want %d",
				w.name, drainTimeout, st.Visible, st.Pending, want)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stopInject)
	inject.Wait()
	r.stop()
	if timeout != nil {
		return pacedResult{}, timeout
	}
	res.sum = r.rec.Summarize(r.coordinated)
	res.store, res.retries = r.store.Stats(), r.eng.ChaosStats().Retry.Retries
	res.metas, res.channels, res.instances = r.eng.CheckpointMetas(), r.eng.Channels(), r.eng.TotalInstances()

	st := r.eng.OutputStats()
	got := st.Visible + st.Pending
	res.failed = max(got, want) - min(got, want)
	seen := make(map[uint64]struct{}, st.Visible)
	for _, rec := range r.eng.VisibleOutput() {
		if _, dup := seen[rec.UID]; dup {
			res.failed++
		}
		seen[rec.UID] = struct{}{}
		res.latMS = append(res.latMS, float64(rec.EmitNS-rec.SchedNS)/1e6)
		res.visibleMS = append(res.visibleMS, float64(rec.VisibleNS-rec.SchedNS)/1e6)
	}
	sort.Float64s(res.latMS)
	sort.Float64s(res.visibleMS)
	for _, rto := range res.sum.RTOs {
		res.restartMS = append(res.restartMS, ms(rto.Rollback+rto.Fetch+rto.Replay))
		if rto.Total > 0 {
			res.caughtUp++
		}
	}
	res.restarted = min(len(res.sum.RTOs), res.planned)
	res.failed += uint64(res.planned - res.restarted)
	return res, nil
}
