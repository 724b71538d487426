package chaos

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestWindowContains(t *testing.T) {
	w := Window{At: 100 * time.Millisecond, For: 50 * time.Millisecond}
	for _, tc := range []struct {
		at   time.Duration
		want bool
	}{
		{0, false},
		{99 * time.Millisecond, false},
		{100 * time.Millisecond, true},
		{149 * time.Millisecond, true},
		{150 * time.Millisecond, false},
	} {
		if got := w.Contains(tc.at); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestPlanEmpty(t *testing.T) {
	if !(Plan{}).Empty() {
		t.Fatal("zero plan should be empty")
	}
	if (Plan{Outage: []Window{{0, time.Second}}}).Empty() {
		t.Fatal("plan with outage should not be empty")
	}
	if (Plan{ExchangeJitter: time.Millisecond}).Empty() {
		t.Fatal("plan with exchange jitter should not be empty")
	}
}

func TestInjectorNilSafe(t *testing.T) {
	var in *Injector
	in.Arm()
	if d, err := in.StoreOp("put", 10); d != 0 || err != nil {
		t.Fatalf("nil injector StoreOp = (%v, %v)", d, err)
	}
	if d := in.FsyncDelay(); d != 0 {
		t.Fatalf("nil injector FsyncDelay = %v", d)
	}
	if d := in.ExchangeDelay(); d != 0 {
		t.Fatalf("nil injector ExchangeDelay = %v", d)
	}
	if s := in.Stats(); s != (InjectorStats{}) {
		t.Fatalf("nil injector Stats = %+v", s)
	}
}

func TestInjectorOutageWindow(t *testing.T) {
	in := NewInjector(Plan{Outage: []Window{{At: 0, For: time.Hour}}})
	in.Arm()
	_, err := in.StoreOp("put", 1)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("inside outage window want ErrInjected, got %v", err)
	}
	// A window entirely in the future injects nothing now.
	in2 := NewInjector(Plan{Outage: []Window{{At: time.Hour, For: time.Hour}}})
	in2.Arm()
	if _, err := in2.StoreOp("get", 1); err != nil {
		t.Fatalf("outside outage window want nil, got %v", err)
	}
	if got := in.Stats().StoreErrors; got != 1 {
		t.Fatalf("StoreErrors = %d, want 1", got)
	}
}

func TestInjectorBrownoutRate(t *testing.T) {
	in := NewInjector(Plan{
		Brownout:     []Window{{At: 0, For: time.Hour}},
		BrownoutRate: 0.5,
		Seed:         7,
	})
	in.Arm()
	fails := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := in.StoreOp("put", 1); err != nil {
			fails++
		}
	}
	if fails < n/4 || fails > 3*n/4 {
		t.Fatalf("brownout rate 0.5 produced %d/%d failures", fails, n)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	run := func() []bool {
		in := NewInjector(Plan{Brownout: []Window{{0, time.Hour}}, BrownoutRate: 0.3, Seed: 42})
		in.Arm()
		var out []bool
		for i := 0; i < 100; i++ {
			_, err := in.StoreOp("put", 1)
			out = append(out, err != nil)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
}

func TestInjectorLatencySpike(t *testing.T) {
	in := NewInjector(Plan{
		LatencySpike: []Window{{At: 0, For: time.Hour}},
	})
	in.Arm()
	d, err := in.StoreOp("get", 1)
	if err != nil || d != spikeLatency {
		t.Fatalf("spike StoreOp = (%v, %v), want (%v, nil)", d, err, spikeLatency)
	}
	if got := in.Stats().StoreSpikes; got != 1 {
		t.Fatalf("StoreSpikes = %d, want 1", got)
	}
}

func TestInjectorFsyncStall(t *testing.T) {
	in := NewInjector(Plan{
		FsyncStall:    []Window{{At: 0, For: time.Hour}},
		StallDuration: 3 * time.Millisecond,
	})
	in.Arm()
	if d := in.FsyncDelay(); d != 3*time.Millisecond {
		t.Fatalf("FsyncDelay = %v, want 3ms", d)
	}
	if got := in.Stats().FsyncStalls; got != 1 {
		t.Fatalf("FsyncStalls = %d, want 1", got)
	}
}

func TestInjectorExchangeDelay(t *testing.T) {
	in := NewInjector(Plan{ExchangeJitter: time.Millisecond})
	in.Arm()
	varied := false
	first := in.ExchangeDelay()
	for i := 0; i < 50; i++ {
		d := in.ExchangeDelay()
		if d < 0 || d > time.Millisecond {
			t.Fatalf("ExchangeDelay = %v, want within [0, 1ms]", d)
		}
		varied = varied || d != first
	}
	if !varied {
		t.Fatalf("ExchangeDelay returned %v every time, want jitter", first)
	}
}

func TestRetryNilPolicySingleAttempt(t *testing.T) {
	var p *RetryPolicy
	calls := 0
	err := p.Do("op", func() error { calls++; return errors.New("boom") })
	if err == nil || calls != 1 {
		t.Fatalf("nil policy: calls=%d err=%v, want 1 call and the error", calls, err)
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	c := &RetryCounters{}
	p := &RetryPolicy{Counters: c, Sleep: func(time.Duration) {}}
	calls := 0
	err := p.Do("op", func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("calls=%d err=%v, want 3 calls and nil", calls, err)
	}
	s := c.Snapshot()
	if s.Attempts != 3 || s.Retries != 2 || s.Exhausted != 0 {
		t.Fatalf("counters = %+v", s)
	}
}

func TestRetryExhaustion(t *testing.T) {
	c := &RetryCounters{}
	p := &RetryPolicy{Counters: c, Sleep: func(time.Duration) {}}
	calls := 0
	err := p.Do("ckpt.put", func() error { calls++; return errors.New("down") })
	if err == nil || calls != maxAttempts {
		t.Fatalf("calls=%d err=%v, want %d calls and error", calls, err, maxAttempts)
	}
	if !strings.Contains(err.Error(), "ckpt.put") || !strings.Contains(err.Error(), "down") {
		t.Fatalf("error should name op and wrap cause: %v", err)
	}
	if s := c.Snapshot(); s.Exhausted != 1 {
		t.Fatalf("Exhausted = %d, want 1", s.Exhausted)
	}
}

// TestRetryBackoffGrowsAndCaps checks each backoff doubles within its
// jitter band and that the sleeps stop at maxAttempts.
func TestRetryBackoffGrowsAndCaps(t *testing.T) {
	var sleeps []time.Duration
	p := &RetryPolicy{Sleep: func(d time.Duration) { sleeps = append(sleeps, d) }}
	_ = p.Do("op", func() error { return errors.New("x") })
	if len(sleeps) != maxAttempts-1 {
		t.Fatalf("got %d sleeps, want %d", len(sleeps), maxAttempts-1)
	}
	want := baseDelay
	for i, d := range sleeps {
		lo := time.Duration(float64(want) * (1 - jitter))
		hi := time.Duration(float64(want) * (1 + jitter))
		if d < lo || d > hi {
			t.Fatalf("sleep %d = %v, want within [%v, %v] (all: %v)", i, d, lo, hi, sleeps)
		}
		want *= multiplier
	}
}

func TestRetryOnBackoffCallback(t *testing.T) {
	type bk struct {
		op      string
		attempt int
	}
	var seen []bk
	p := &RetryPolicy{
		OnBackoff: func(op string, attempt int, d time.Duration) { seen = append(seen, bk{op, attempt}) },
		Sleep:     func(time.Duration) {},
	}
	_ = p.Do("meta.put", func() error { return errors.New("x") })
	if len(seen) != 3 || seen[0] != (bk{"meta.put", 1}) || seen[2] != (bk{"meta.put", 3}) {
		t.Fatalf("backoff callbacks = %+v", seen)
	}
}

// BenchmarkRetryDo measures the policy's cost on the path every store
// operation takes: one successful attempt, counters on.
func BenchmarkRetryDo(b *testing.B) {
	p := &RetryPolicy{Counters: &RetryCounters{}}
	f := func() error { return nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Do("ckpt.put", f); err != nil {
			b.Fatal(err)
		}
	}
}
