// Package chaos is the deterministic fault plane of the engine: a seeded
// schedule of hostile conditions (object-store brownouts and outages,
// latency spikes, WAL fsync stalls, exchange jitter) plus the shared retry
// policy (bounded exponential backoff with jitter) that every store-facing
// operation runs under.
//
// The package composes over existing seams rather than adding new ones: an
// Injector plugs into objstore.Config.Fault, wal.Options.FsyncDelay and the
// engine's exchange flush path; a RetryPolicy replaces the ad-hoc bounded
// retry loops that used to live in the uploader, the meta writer and the
// recovery blob fetcher. Everything is nil-safe: a nil *Injector and a nil
// *RetryPolicy behave as "no chaos, single attempt", so callers never
// branch on whether chaos is configured.
//
// Determinism: every random decision (brownout Bernoulli draws, backoff
// jitter) comes from a seeded PRNG, and fault windows are expressed as
// offsets from Arm() — the moment the engine starts — so a scenario replays
// identically for a given (Plan, workload seed) pair.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Window is one fault interval, expressed relative to Arm() time.
type Window struct {
	// At is the offset from Arm() at which the window opens.
	At time.Duration `json:"at"`
	// For is how long the window stays open.
	For time.Duration `json:"for"`
}

// Contains reports whether the window is open at the given elapsed time.
func (w Window) Contains(elapsed time.Duration) bool {
	return elapsed >= w.At && elapsed < w.At+w.For
}

// Plan is a declarative, seeded fault schedule. The zero Plan injects
// nothing (Empty returns true).
type Plan struct {
	// Seed drives the plan's PRNG (brownout draws, jitter). Zero means 1.
	Seed int64

	// Brownout windows fail store operations with probability
	// BrownoutRate and are the "slow, flaky store" shape.
	Brownout     []Window
	BrownoutRate float64 // default 0.5

	// Outage windows fail every store operation — a total store outage.
	Outage []Window

	// LatencySpike windows add spikeLatency to every store operation.
	LatencySpike []Window

	// FsyncStall windows add StallDuration to every WAL fsync.
	FsyncStall    []Window
	StallDuration time.Duration // default 5ms

	// ExchangeJitter bounds a uniform random delay added to every
	// data-plane batch handoff between operator instances, modelling a
	// jittery network for the whole run (not windowed: exchange delay
	// shifts steady-state behaviour, which is what the straggler/skew
	// scenarios measure).
	ExchangeJitter time.Duration
}

// spikeLatency is the delay a LatencySpike window adds to a store op.
const spikeLatency = 25 * time.Millisecond

// Empty reports whether the plan injects nothing at all.
func (p Plan) Empty() bool {
	return len(p.Brownout) == 0 && len(p.Outage) == 0 && len(p.LatencySpike) == 0 &&
		len(p.FsyncStall) == 0 && p.ExchangeJitter == 0
}

// ErrInjected marks failures manufactured by the chaos plane, so tests and
// logs can tell injected faults from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// InjectorStats is a snapshot of the injector's fault counters.
type InjectorStats struct {
	StoreErrors uint64 // store ops failed by outage/brownout windows
	StoreSpikes uint64 // store ops delayed by latency-spike windows
	FsyncStalls uint64 // WAL fsyncs stalled
}

// Injector evaluates a Plan against a wall clock armed at engine start. All
// methods are safe on a nil receiver (they inject nothing) and safe for
// concurrent use.
type Injector struct {
	plan   Plan
	origin atomic.Int64 // unix nanos of Arm(); 0 = not yet armed

	mu  sync.Mutex
	rng *rand.Rand

	storeErrors atomic.Uint64
	storeSpikes atomic.Uint64
	fsyncStalls atomic.Uint64
}

// NewInjector builds an injector for the plan, applying defaults.
func NewInjector(p Plan) *Injector {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.BrownoutRate <= 0 {
		p.BrownoutRate = 0.5
	}
	if p.StallDuration <= 0 {
		p.StallDuration = 5 * time.Millisecond
	}
	return &Injector{plan: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Arm sets the injector's time origin; fault windows are offsets from this
// moment. The first call wins; later calls are no-ops, so an engine restart
// within a run does not shift the schedule. Nil-safe.
func (in *Injector) Arm() {
	if in == nil {
		return
	}
	in.origin.CompareAndSwap(0, time.Now().UnixNano())
}

// elapsed returns time since Arm, arming lazily if needed.
func (in *Injector) elapsed() time.Duration {
	o := in.origin.Load()
	if o == 0 {
		in.Arm()
		o = in.origin.Load()
	}
	return time.Duration(time.Now().UnixNano() - o)
}

func anyContains(ws []Window, elapsed time.Duration) bool {
	for _, w := range ws {
		if w.Contains(elapsed) {
			return true
		}
	}
	return false
}

// StoreOp is consulted by the object store on every operation; it returns
// extra latency to add and/or an error that fails the op. op is "put" or
// "get"; n is the payload size. Implements objstore's fault-injector seam.
func (in *Injector) StoreOp(op string, n int) (time.Duration, error) {
	if in == nil || in.planStoreQuiet() {
		return 0, nil
	}
	elapsed := in.elapsed()
	var delay time.Duration
	if anyContains(in.plan.LatencySpike, elapsed) {
		delay = spikeLatency
		in.storeSpikes.Add(1)
	}
	if anyContains(in.plan.Outage, elapsed) {
		in.storeErrors.Add(1)
		return delay, fmt.Errorf("%w: store outage (%s %dB)", ErrInjected, op, n)
	}
	if anyContains(in.plan.Brownout, elapsed) {
		in.mu.Lock()
		hit := in.rng.Float64() < in.plan.BrownoutRate
		in.mu.Unlock()
		if hit {
			in.storeErrors.Add(1)
			return delay, fmt.Errorf("%w: store brownout (%s %dB)", ErrInjected, op, n)
		}
	}
	return delay, nil
}

func (in *Injector) planStoreQuiet() bool {
	return len(in.plan.Brownout) == 0 && len(in.plan.Outage) == 0 && len(in.plan.LatencySpike) == 0
}

// FsyncDelay is consulted by the WAL before every fsync; it returns the
// stall to add (zero outside FsyncStall windows). Nil-safe.
func (in *Injector) FsyncDelay() time.Duration {
	if in == nil || len(in.plan.FsyncStall) == 0 {
		return 0
	}
	if anyContains(in.plan.FsyncStall, in.elapsed()) {
		in.fsyncStalls.Add(1)
		return in.plan.StallDuration
	}
	return 0
}

// ExchangeDelay returns the per-batch exchange delay, uniform in
// [0, ExchangeJitter]. Nil-safe; zero when the plan has no exchange
// shaping.
func (in *Injector) ExchangeDelay() time.Duration {
	if in == nil || in.plan.ExchangeJitter == 0 {
		return 0
	}
	in.mu.Lock()
	d := time.Duration(in.rng.Int63n(int64(in.plan.ExchangeJitter) + 1))
	in.mu.Unlock()
	return d
}

// Stats snapshots the injector's fault counters. Nil-safe.
func (in *Injector) Stats() InjectorStats {
	if in == nil {
		return InjectorStats{}
	}
	return InjectorStats{
		StoreErrors: in.storeErrors.Load(),
		StoreSpikes: in.storeSpikes.Load(),
		FsyncStalls: in.fsyncStalls.Load(),
	}
}

// ---- Retry policy ----

// RetryCounters accumulates retry accounting across every operation run
// under one policy; share one instance per engine and surface Snapshot()
// on /metrics.
type RetryCounters struct {
	Attempts     atomic.Uint64 // every f() invocation, first tries included
	Retries      atomic.Uint64 // re-invocations after a failure
	Exhausted    atomic.Uint64 // operations that gave up after maxAttempts
	BackoffNanos atomic.Uint64 // total time spent sleeping in backoff
}

// RetryStats is a plain-value snapshot of RetryCounters.
type RetryStats struct {
	Attempts  uint64
	Retries   uint64
	Exhausted uint64
	Backoff   time.Duration
}

// Snapshot returns the current counter values. Nil-safe.
func (c *RetryCounters) Snapshot() RetryStats {
	if c == nil {
		return RetryStats{}
	}
	return RetryStats{
		Attempts:  c.Attempts.Load(),
		Retries:   c.Retries.Load(),
		Exhausted: c.Exhausted.Load(),
		Backoff:   time.Duration(c.BackoffNanos.Load()),
	}
}

// The retry schedule: maxAttempts tries, the first backoff baseDelay, each
// next one multiplier times longer, every sleep scaled by a random factor
// in [1-jitter, 1+jitter].
const (
	maxAttempts = 4
	baseDelay   = time.Millisecond
	multiplier  = 2
	jitter      = 0.5
)

// RetryPolicy runs operations with bounded exponential backoff. The zero
// value is usable; a nil pointer means "one attempt, no retry".
type RetryPolicy struct {
	Counters *RetryCounters
	// OnBackoff observes each backoff sleep (op name, attempt number just
	// failed, sleep duration) — the engine hooks trace spans here.
	OnBackoff func(op string, attempt int, d time.Duration)
	Seed      int64
	// Sleep replaces time.Sleep in tests.
	Sleep func(time.Duration)

	initOnce sync.Once
	mu       sync.Mutex
	rng      *rand.Rand
}

func (p *RetryPolicy) init() {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	p.rng = rand.New(rand.NewSource(seed))
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
}

// jittered returns d scaled by a random factor in [1-jitter, 1+jitter].
func (p *RetryPolicy) jittered(d time.Duration) time.Duration {
	p.mu.Lock()
	f := 1 - jitter + 2*jitter*p.rng.Float64()
	p.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// Do runs f under the policy, retrying transient failures with exponential
// backoff until success or maxAttempts. op names the operation in errors,
// counters and backoff callbacks (e.g. "ckpt.put"). A nil policy runs f
// exactly once.
func (p *RetryPolicy) Do(op string, f func() error) error {
	if p == nil {
		return f()
	}
	p.initOnce.Do(p.init)
	delay := baseDelay
	var err error
	for attempt := 1; ; attempt++ {
		if p.Counters != nil {
			p.Counters.Attempts.Add(1)
		}
		if err = f(); err == nil {
			return nil
		}
		if attempt >= maxAttempts {
			if p.Counters != nil {
				p.Counters.Exhausted.Add(1)
			}
			return fmt.Errorf("chaos: %s failed after %d attempts: %w", op, attempt, err)
		}
		d := p.jittered(delay)
		if p.OnBackoff != nil {
			p.OnBackoff(op, attempt, d)
		}
		if p.Counters != nil {
			p.Counters.Retries.Add(1)
			p.Counters.BackoffNanos.Add(uint64(d))
		}
		p.Sleep(d)
		delay *= multiplier
	}
}
