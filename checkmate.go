// Package checkmate is a Go reproduction of "CheckMate: Evaluating
// Checkpointing Protocols for Streaming Dataflows" (ICDE 2024). It bundles:
//
//   - a streaming dataflow engine (goroutine-per-operator-instance, bounded
//     FIFO channels with backpressure, hash/forward/broadcast partitioning,
//     failure injection and global rollback recovery) with a batched data
//     plane: records are exchanged in vectorized batch envelopes that share
//     routing headers and protocol piggybacks, with a protocol-aware flush
//     policy (EngineConfig.Batching) that drains buffers ahead of markers,
//     watermarks and snapshots so checkpoint semantics are identical at
//     every batch size;
//   - the three checkpointing protocol families of the paper — coordinated
//     aligned (COOR), uncoordinated (UNC) and communication-induced (CIC,
//     the HMNR protocol) — plus a checkpoint-free baseline;
//   - simulated substrates for the paper's external systems: a replayable
//     partitioned message queue (Kafka) and a durable checkpoint object
//     store (Minio);
//   - the NexMark workload (queries Q1, Q3, Q8, Q12 with a hot-items skew
//     knob, plus the Q2/Q4/Q5/Q7/Q11 and event-time Q12ET extensions) and
//     the cyclic reachability query;
//   - an experiment harness that regenerates every table and figure of the
//     paper's evaluation section;
//   - extensions the paper points at: the three processing guarantees of
//     §II-A as an engine knob (Semantics), exactly-once output via
//     transactional sinks (OutputTransactional), event-time watermarks
//     (WatermarkHandler), checkpoint trigger policies for the
//     uncoordinated family (UNCWithPolicy), straggler injection,
//     checkpoint garbage collection and compression, and savepoint-based
//     rescaling (Savepoint, Rescalable).
//
// # Quickstart
//
// Build a job, pick a protocol, run it:
//
//	job := &checkmate.JobSpec{
//		Ops: []checkmate.OpSpec{
//			{Name: "src", Source: &checkmate.SourceSpec{Topic: "events"}},
//			{Name: "count", New: func(int) checkmate.Operator { return myCounter() }},
//		},
//		Edges: []checkmate.EdgeSpec{{From: 0, To: 1, Part: checkmate.Hash}},
//	}
//	res, err := checkmate.Run(checkmate.RunConfig{
//		Query: "q1", Protocol: checkmate.UNC(), Workers: 4, Rate: 50_000,
//	})
//
// See examples/ for complete programs and bench_test.go for the experiment
// reproduction entry points.
package checkmate

import (
	"checkmate/internal/chaos"
	"checkmate/internal/cluster"
	"checkmate/internal/core"
	"checkmate/internal/harness"
	"checkmate/internal/metrics"
	"checkmate/internal/mq"
	"checkmate/internal/nexmark"
	"checkmate/internal/objstore"
	"checkmate/internal/protocol"
	"checkmate/internal/statestore"
	"checkmate/internal/trace"
	"checkmate/internal/wire"
)

// Dataflow graph construction.
type (
	// JobSpec is a logical dataflow graph.
	JobSpec = core.JobSpec
	// OpSpec describes one operator of a job.
	OpSpec = core.OpSpec
	// EdgeSpec connects two operators.
	EdgeSpec = core.EdgeSpec
	// SourceSpec marks an operator as a topic source.
	SourceSpec = core.SourceSpec
	// Partitioning selects how records travel across an edge.
	Partitioning = core.Partitioning
	// Operator is user logic executed by an instance.
	Operator = core.Operator
	// TimerHandler is implemented by operators using timers.
	TimerHandler = core.TimerHandler
	// WatermarkHandler is implemented by operators reacting to event-time
	// progress (watermark-fired windows).
	WatermarkHandler = core.WatermarkHandler
	// KeyedStateUser is implemented by operators that keep keyed state in
	// the engine-owned state backend (Context.KeyedState), enabling
	// incremental (base-plus-delta) checkpoints of that state.
	KeyedStateUser = core.KeyedStateUser
	// StateStore is the keyed state backend handed to KeyedStateUser
	// operators.
	StateStore = statestore.Store
	// ChainPolicy tunes base-vs-delta compaction of incremental
	// checkpoints (EngineConfig.ChainPolicy).
	ChainPolicy = statestore.ChainPolicy
	// Context is the runtime API available during callbacks.
	Context = core.Context
	// Event is one record delivered to an operator.
	Event = core.Event
)

// Partitioning modes.
const (
	// Forward connects instance i to instance i (no shuffling).
	Forward = core.Forward
	// Hash shuffles records by key.
	Hash = core.Hash
	// Broadcast delivers records to all downstream instances.
	Broadcast = core.Broadcast
)

// Engine execution.
type (
	// Engine executes one job under one protocol.
	Engine = core.Engine
	// EngineConfig parameterizes an Engine.
	EngineConfig = core.Config
	// BatchingConfig is the flush policy of the vectorized exchange
	// (EngineConfig.Batching): records crossing a channel are staged in
	// per-channel output buffers and shipped as one batch envelope sharing
	// the routing header, flushed on MaxRecords/MaxBytes/LingerTicks or by
	// protocol events (markers, watermarks, snapshots).
	BatchingConfig = core.BatchingConfig
	// Protocol is a checkpointing protocol implementation.
	Protocol = core.Protocol
	// Features is the Table I qualitative feature row of a protocol.
	Features = core.Features
	// Semantics selects the processing guarantee (exactly-once,
	// at-least-once, at-most-once) enforced by the logging protocols.
	Semantics = core.Semantics
	// OutputMode selects how sink output is exposed to the external
	// consumer (none, immediate, or transactional exactly-once output).
	OutputMode = core.OutputMode
	// OutputRecord is one record as seen by the external output consumer.
	OutputRecord = core.OutputRecord
	// OutputStats summarizes output-collector accounting.
	OutputStats = core.OutputStats
	// Savepoint is a parallelism-independent image of a drained pipeline
	// (stop-with-savepoint): a new engine can resume from it with a
	// different worker count.
	Savepoint = core.Savepoint
	// Rescalable is implemented by operators whose keyed state can be
	// redistributed when restoring a savepoint at a new parallelism.
	Rescalable = core.Rescalable
	// KeyedEntry is one exported keyed-state entry of a savepoint.
	KeyedEntry = core.KeyedEntry
)

// Cluster topology: worker placement, failure domains, local recovery.
type (
	// ClusterConfig configures the simulated cluster topology of an
	// engine (EngineConfig.Cluster): worker count, placement policy and
	// the worker-local state cache.
	ClusterConfig = cluster.Config
	// PlacementPolicy names a placement strategy mapping operator
	// instances to cluster workers.
	PlacementPolicy = cluster.Policy
	// Topology is an immutable instance→worker placement (Engine.Topology).
	Topology = cluster.Topology
	// FailurePlan expands a failure domain (single worker, rack,
	// rolling restart) into concrete injection events.
	FailurePlan = cluster.FailurePlan
	// FailureDomain names a failure shape.
	FailureDomain = cluster.Domain
	// CacheStats snapshots the worker-local state cache counters.
	CacheStats = cluster.CacheStats
	// RTO is the phase breakdown of one recovery: detection → rollback
	// computation → state fetch → replay → caught-up, plus local-vs-
	// remote restore accounting (Summary.RTOs).
	RTO = metrics.RTO
)

// Placement policies (ClusterConfig.Policy).
const (
	// PlacementSpread spreads each operator's instances across the
	// cluster, co-locating equal instance indexes (default).
	PlacementSpread = cluster.PolicySpread
	// PlacementRoundRobin deals instances onto workers in global
	// instance order.
	PlacementRoundRobin = cluster.PolicyRoundRobin
	// PlacementColocate hosts all instances of one operator on a single
	// hashed worker.
	PlacementColocate = cluster.PolicyColocate
	// PlacementExplicit uses ClusterConfig.Assignment.
	PlacementExplicit = cluster.PolicyExplicit
)

// Failure domains (FailurePlan.Domain).
const (
	// FailWorker crashes a single worker.
	FailWorker = cluster.DomainWorker
	// FailRack crashes several consecutive workers at once.
	FailRack = cluster.DomainRack
	// FailRolling crashes workers one after another.
	FailRolling = cluster.DomainRolling
	// FailFlapping crashes the same worker repeatedly.
	FailFlapping = cluster.DomainFlapping
)

// Processing guarantees (paper §II-A, Definitions 1-3).
const (
	// ExactlyOnce reflects every state change exactly once (default).
	ExactlyOnce = core.ExactlyOnce
	// AtLeastOnce never loses a record but may process some more than once.
	AtLeastOnce = core.AtLeastOnce
	// AtMostOnce never duplicates but loses in-flight records on failure.
	AtMostOnce = core.AtMostOnce
)

// Output modes (paper §II-A: exactly-once processing vs exactly-once
// output).
const (
	// OutputNone collects no sink output (default).
	OutputNone = core.OutputNone
	// OutputImmediate publishes sink output instantly; an external
	// consumer can observe duplicates after a failure.
	OutputImmediate = core.OutputImmediate
	// OutputTransactional commits sink output per checkpoint epoch,
	// extending exactly-once processing to exactly-once output.
	OutputTransactional = core.OutputTransactional
)

// SemanticsByName resolves a processing guarantee by name.
func SemanticsByName(name string) (Semantics, error) { return core.SemanticsByName(name) }

// NewEngine validates a job and builds an engine.
func NewEngine(cfg EngineConfig, job *JobSpec) (*Engine, error) {
	return core.NewEngine(cfg, job)
}

// Protocols.

// NONE returns the checkpoint-free baseline protocol.
func NONE() Protocol { return protocol.None{} }

// COOR returns the coordinated aligned checkpointing protocol.
func COOR() Protocol { return protocol.Coordinated{} }

// UNC returns the uncoordinated checkpointing protocol.
func UNC() Protocol { return protocol.Uncoordinated{} }

// CIC returns the communication-induced checkpointing protocol (HMNR).
func CIC() Protocol { return protocol.CIC{} }

// ProtocolByName resolves NONE/COOR/UNC/CIC (plus the UCOOR and BCS
// extensions) by name.
func ProtocolByName(name string) (Protocol, error) { return protocol.ByName(name) }

// Checkpoint trigger policies for the uncoordinated protocol (§III-B's
// "different operators can have different checkpoint intervals").
type (
	// TriggerPolicy decides when an uncoordinated instance checkpoints.
	TriggerPolicy = protocol.TriggerPolicy
	// IntervalPolicy checkpoints on a (jittered) wall-clock interval.
	IntervalPolicy = protocol.Interval
	// EventCountPolicy checkpoints after a processed-message budget,
	// bounding the replay volume on recovery.
	EventCountPolicy = protocol.EventCount
	// IdlePolicy checkpoints when the instance goes quiet (cheap moment:
	// small frontier, often just-evicted window state).
	IdlePolicy = protocol.Idle
)

// UNCWithPolicy returns the uncoordinated protocol with a custom checkpoint
// trigger policy.
func UNCWithPolicy(p TriggerPolicy) Protocol {
	return protocol.UncoordinatedWithPolicy{Policy: p}
}

// AllProtocols returns the baseline plus the three protocol families.
func AllProtocols() []Protocol { return protocol.All() }

// Experiments.
type (
	// RunConfig describes a single experiment run.
	RunConfig = harness.RunConfig
	// RunResult is the outcome of a run.
	RunResult = harness.RunResult
	// MSTConfig controls the sustainable-throughput search.
	MSTConfig = harness.MSTConfig
	// Suite reproduces the paper's evaluation section.
	Suite = harness.Suite
	// ChaosPlan is the deterministic fault-injection plan of a run:
	// windowed store brownouts/outages/latency spikes, WAL fsync stalls
	// and exchange delay/jitter (RunConfig.Chaos).
	ChaosPlan = chaos.Plan
	// ChaosWindow is one fault window of a ChaosPlan, offset from engine
	// start.
	ChaosWindow = chaos.Window
	// ChaosStats is the robustness accounting of a run: retry/backoff
	// counters, injected faults, watchdog round abandonments and the
	// degraded-mode ledger (RunResult.Chaos).
	ChaosStats = core.ChaosStats
	// RetryConfig tunes the engine's shared store retry policy
	// (EngineConfig.Retry).
	RetryConfig = core.RetryConfig
	// ScenarioConfig selects one named hostile scenario run (see
	// RunScenario and Scenarios).
	ScenarioConfig = harness.ScenarioConfig
	// ScenarioPoint is one machine-readable hostile-scenario measurement,
	// the unit of the committed BENCH_scenarios.json trajectory.
	ScenarioPoint = harness.ScenarioPoint
	// Summary is the full metric snapshot of a run.
	Summary = metrics.Summary
	// Table is an aligned-text result table.
	Table = metrics.Table
)

// QueryCyclic names the cyclic reachability query in RunConfig.Query.
const QueryCyclic = harness.QueryCyclic

// QueryConfig tunes the bundled NexMark queries (see BuildQuery).
type QueryConfig = nexmark.QueryConfig

// BuildQuery constructs the dataflow of a bundled NexMark query by name,
// for running outside the harness (custom engines, topology inspection).
func BuildQuery(name string, qc QueryConfig) (*JobSpec, error) { return nexmark.Build(name, qc) }

// QueryTopics lists the broker topics a bundled NexMark query consumes.
func QueryTopics(name string) []string { return nexmark.TopicsFor(name) }

// Run executes one experiment run.
func Run(cfg RunConfig) (RunResult, error) { return harness.Run(cfg) }

// FindMST searches for the maximum sustainable throughput.
func FindMST(cfg MSTConfig) (float64, error) { return harness.FindMST(cfg) }

// RunScenario runs one named hostile scenario (deterministic fault
// injection + failure plan + workload skew) with transactional output and
// reduces it to a ScenarioPoint carrying the exactly-once verdict — the
// measurement behind the committed BENCH_scenarios.json baseline.
func RunScenario(cfg ScenarioConfig) (ScenarioPoint, error) { return harness.RunScenario(cfg) }

// Scenarios lists the registered hostile-scenario names, sorted.
func Scenarios() []string { return harness.Scenarios() }

// ScenarioDoc returns the one-line description of a named scenario ("" if
// unknown).
func ScenarioDoc(name string) string { return harness.ScenarioDoc(name) }

// FramePoolStats is a snapshot of the engine's frame-pool counters (see
// ReadFramePoolStats).
type FramePoolStats = core.FramePoolStats

// SetFramePoison toggles the frame pool's poison-on-recycle debug mode
// process-wide: recycled wire frames are scribbled before reuse so stale
// aliases corrupt deterministically. Returns the previous setting.
func SetFramePoison(enabled bool) (prev bool) { return core.SetFramePoison(enabled) }

// ReadFramePoolStats returns the process-wide frame pool counters.
func ReadFramePoolStats() FramePoolStats { return core.ReadFramePoolStats() }

// Observability: the checkpoint-lifecycle span collector and its exports.
type (
	// Tracer is the run-scoped span collector (RunConfig.Trace enables
	// it; RunResult.Trace carries it; EngineConfig.Trace attaches one to
	// a custom engine).
	Tracer = trace.Tracer
	// TraceTrack is one goroutine's span timeline within a Tracer.
	TraceTrack = trace.Track
	// TraceEvent is one recorded span or instant.
	TraceEvent = trace.Event
	// PhaseStat aggregates the spans of one lifecycle phase
	// (Summary.RoundPhases).
	PhaseStat = metrics.PhaseStat
)

// NewTracer returns an enabled span collector; capPerTrack bounds each
// track's event ring (<= 0 selects the default).
func NewTracer(capPerTrack int) *Tracer { return trace.New(capPerTrack) }

// ValidateChromeTrace parses a Chrome trace-event file written by
// Tracer.WriteChromeFile and verifies that the spans of every track form
// a proper nesting tree. Returns the span count.
func ValidateChromeTrace(path string) (int, error) { return trace.ValidateChromeFile(path) }

// ServeObservability binds addr and serves /metrics (from snapshot),
// /trace.json (from tr) and /debug/pprof until Close. Either argument
// may be nil (its endpoint 404s). See trace.Serve.
var ServeObservability = trace.Serve

// NewSuite returns the bench-scale experiment suite (20× time-compressed).
func NewSuite() *Suite { return harness.NewSuite() }

// FullPaperSuite returns the paper-scale suite (60-second runs, up to 100
// workers).
func FullPaperSuite() *Suite { return harness.FullPaperSuite() }

// Substrates, exposed for custom pipelines.
type (
	// Broker is the simulated replayable message queue (Kafka stand-in).
	Broker = mq.Broker
	// Topic is a named set of partitions.
	Topic = mq.Topic
	// ObjectStore is the simulated durable checkpoint store (Minio
	// stand-in).
	ObjectStore = objstore.Store
	// ObjectStoreConfig configures the store's latency model.
	ObjectStoreConfig = objstore.Config
	// Recorder collects run metrics.
	Recorder = metrics.Recorder
)

// NewBroker returns an empty broker.
func NewBroker() *Broker { return mq.NewBroker() }

// NewObjectStore returns an empty object store.
func NewObjectStore(cfg ObjectStoreConfig) *ObjectStore { return objstore.New(cfg) }

// NewRecorder returns a metrics recorder; see metrics.NewRecorder.
var NewRecorder = metrics.NewRecorder

// Serialization, for implementing custom record types.
type (
	// Encoder appends primitive values to a buffer.
	Encoder = wire.Encoder
	// Decoder reads primitive values from a buffer.
	Decoder = wire.Decoder
	// Value is the interface record payloads implement.
	Value = wire.Value
)

// NewEncoder returns an encoder writing into buf (which may be nil).
func NewEncoder(buf []byte) *Encoder { return wire.NewEncoder(buf) }

// NewDecoder returns a decoder reading from buf.
func NewDecoder(buf []byte) *Decoder { return wire.NewDecoder(buf) }

// RegisterType registers the decoder of a custom payload type. Application
// type IDs should start at 100; IDs below that are reserved for the bundled
// workloads.
func RegisterType(id uint16, fn func(*Decoder) (Value, error)) {
	wire.RegisterType(id, func(d *wire.Decoder) (wire.Value, error) { return fn(d) })
}
