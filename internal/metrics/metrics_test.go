package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRecorderBytesAndRatio(t *testing.T) {
	r := NewRecorder(time.Now(), 10*time.Second, time.Second)
	if got := r.OverheadRatio(); got != 1 {
		t.Fatalf("empty ratio = %v", got)
	}
	r.AddPayloadBytes(100)
	r.AddProtocolBytes(150)
	if got := r.OverheadRatio(); got != 2.5 {
		t.Fatalf("ratio = %v, want 2.5", got)
	}
}

func TestRecorderCounters(t *testing.T) {
	r := NewRecorder(time.Now(), time.Second, time.Second)
	r.IncDataMessages()
	r.IncMarkerMessages()
	r.IncReplayMessages(3)
	r.IncDupDropped()
	r.IncForcedCheckpoints()
	r.IncLocalCheckpoints()
	s := r.Summarize(false)
	if s.DataMessages != 1 || s.MarkerMessages != 1 || s.ReplayMessages != 3 ||
		s.DupDropped != 1 || s.ForcedCkpts != 1 || s.LocalCkpts != 1 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestCheckpointTimeSelection(t *testing.T) {
	r := NewRecorder(time.Now(), time.Second, time.Second)
	r.RecordCheckpointDuration(2 * time.Millisecond)
	r.RecordCheckpointDuration(4 * time.Millisecond)
	r.RecordRoundDuration(100 * time.Millisecond)
	if got := r.Summarize(false).AvgCheckpointTime; got != 3*time.Millisecond {
		t.Fatalf("UNC avg CT = %v", got)
	}
	if got := r.Summarize(true).AvgCheckpointTime; got != 100*time.Millisecond {
		t.Fatalf("COOR avg CT = %v", got)
	}
}

func TestRestartRecovery(t *testing.T) {
	r := NewRecorder(time.Now(), time.Second, time.Second)
	s := r.Summarize(false)
	if s.Recovered || s.Failures != 0 {
		t.Fatalf("fresh summary = %+v", s)
	}
	r.RecordRestart(50 * time.Millisecond)
	r.RecordRecovery(300 * time.Millisecond)
	s = r.Summarize(false)
	if !s.Recovered || s.RestartTime != 50*time.Millisecond || s.RecoveryTime != 300*time.Millisecond || s.Failures != 1 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestTimelineBuckets(t *testing.T) {
	start := time.Now()
	r := NewRecorder(start, 5*time.Second, time.Second)
	// Two observations in bucket 0, one in bucket 3.
	r.RecordSinkLatency(start.Add(100*time.Millisecond), 10*time.Millisecond)
	r.RecordSinkLatency(start.Add(900*time.Millisecond), 30*time.Millisecond)
	r.RecordSinkLatency(start.Add(3500*time.Millisecond), 70*time.Millisecond)
	sum := r.Timeline().Summarize()
	if len(sum.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(sum.Points))
	}
	if sum.Points[0].Start != 0 || sum.Points[0].Count != 2 {
		t.Fatalf("bucket 0 = %+v", sum.Points[0])
	}
	if sum.Points[0].P50 != 10*time.Millisecond || sum.Points[0].P99 != 30*time.Millisecond {
		t.Fatalf("bucket 0 percentiles = %+v", sum.Points[0])
	}
	if sum.Points[1].Start != 3*time.Second || sum.Points[1].P50 != 70*time.Millisecond {
		t.Fatalf("bucket 3 = %+v", sum.Points[1])
	}
	if sum.P50 != 30*time.Millisecond {
		t.Fatalf("overall p50 = %v", sum.P50)
	}
}

func TestTimelineOutOfRangeClamps(t *testing.T) {
	tl := NewTimeline(2*time.Second, time.Second)
	tl.Record(-time.Second, time.Millisecond)    // clamps to bucket 0
	tl.Record(100*time.Second, time.Millisecond) // clamps to last
	sum := tl.Summarize()
	if len(sum.Points) != 2 {
		t.Fatalf("points = %d", len(sum.Points))
	}
}

func TestReservoirOverflow(t *testing.T) {
	tl := NewTimeline(time.Second, time.Second)
	for i := 0; i < 3*reservoirCap; i++ {
		tl.Record(0, time.Duration(i))
	}
	sum := tl.Summarize()
	if sum.Points[0].Count != uint64(3*reservoirCap) {
		t.Fatalf("count = %d", sum.Points[0].Count)
	}
	// p50 should be around the middle of the inserted range; allow slack
	// since the reservoir is a sample.
	mid := time.Duration(3 * reservoirCap / 2)
	if sum.Points[0].P50 < mid/4 || sum.Points[0].P50 > mid*2 {
		t.Fatalf("p50 = %v, mid %v", sum.Points[0].P50, mid)
	}
}

func TestLastQuartileP50(t *testing.T) {
	tl := NewTimeline(8*time.Second, time.Second)
	for i := 0; i < 8; i++ {
		tl.Record(time.Duration(i)*time.Second, time.Duration(i+1)*time.Millisecond)
	}
	got := tl.Summarize().LastQuartileP50()
	if got != 8*time.Millisecond {
		t.Fatalf("last quartile p50 = %v", got)
	}
	var empty TimelineSummary
	if empty.LastQuartileP50() != 0 {
		t.Fatal("empty timeline quartile should be 0")
	}
}

func TestPercentileExact(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	if got := Percentile(ds, 0.5); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(ds, 1.0); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	// Input must not be mutated.
	if ds[0] != 5 {
		t.Fatal("Percentile mutated input")
	}
}

func TestQuickPercentileBounds(t *testing.T) {
	f := func(raw []int16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]time.Duration, len(raw))
		lo, hi := time.Duration(raw[0]), time.Duration(raw[0])
		for i, v := range raw {
			ds[i] = time.Duration(v)
			if ds[i] < lo {
				lo = ds[i]
			}
			if ds[i] > hi {
				hi = ds[i]
			}
		}
		q := float64(qRaw%100+1) / 100
		p := Percentile(ds, q)
		return p >= lo && p <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentRecording(t *testing.T) {
	start := time.Now()
	r := NewRecorder(start, 2*time.Second, time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.RecordSinkLatency(start, time.Millisecond)
				r.AddPayloadBytes(1)
			}
		}()
	}
	wg.Wait()
	if r.SinkCount() != 8000 {
		t.Fatalf("SinkCount = %d", r.SinkCount())
	}
	if r.PayloadBytes() != 8000 {
		t.Fatalf("PayloadBytes = %d", r.PayloadBytes())
	}
}

func TestNotes(t *testing.T) {
	r := NewRecorder(time.Now(), time.Second, time.Second)
	r.Note("skew=%d%%", 20)
	s := r.Summarize(false)
	if len(s.Notes) != 1 || s.Notes[0] != "skew=20%" {
		t.Fatalf("notes = %v", s.Notes)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "Query", "COOR", "UNC")
	tb.AddRow("Q1", 1.0, 0.9)
	tb.AddRow("Q12", "n/a", 123)
	out := tb.String()
	if !strings.Contains(out, "## Demo") || !strings.Contains(out, "Q12") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestEmptyPauseBucketsYieldZero(t *testing.T) {
	// A run with no checkpoint captures (NONE protocol, or a traced run that
	// ended before the first round) must summarize to zeros — never NaN or
	// an index panic in the percentile machinery.
	r := NewRecorder(time.Now(), 10*time.Second, time.Second)
	r.RecordSinkLatencySince(time.Millisecond, 3*time.Millisecond)
	s := r.Summarize(true)
	if s.SyncPauses != 0 {
		t.Fatalf("SyncPauses = %d", s.SyncPauses)
	}
	if s.MeanSyncPause != 0 || s.MaxSyncPause != 0 || s.P99SyncPause != 0 {
		t.Fatalf("pause stats = %v/%v/%v, want zeros", s.MeanSyncPause, s.MaxSyncPause, s.P99SyncPause)
	}
}

func TestPauseMarksInEmptyTimeline(t *testing.T) {
	// Sync pauses recorded but no latency samples at all: the pause
	// percentiles still compute.
	r := NewRecorder(time.Now(), 10*time.Second, time.Second)
	r.RecordSyncPause(5 * time.Millisecond)
	r.RecordSyncPause(7 * time.Millisecond)
	s := r.Summarize(true)
	if s.SyncPauses != 2 || s.P99SyncPause != 7*time.Millisecond {
		t.Fatalf("pauses = %d p99 = %v", s.SyncPauses, s.P99SyncPause)
	}
}

func TestPhaseStatMean(t *testing.T) {
	if got := (PhaseStat{}).Mean(); got != 0 {
		t.Fatalf("empty phase mean = %v", got)
	}
	p := PhaseStat{Name: "ckpt.upload", Count: 4, Total: 8 * time.Millisecond, Max: 3 * time.Millisecond}
	if got := p.Mean(); got != 2*time.Millisecond {
		t.Fatalf("mean = %v", got)
	}
}

func TestDupDroppedAccessor(t *testing.T) {
	r := NewRecorder(time.Now(), time.Second, time.Second)
	if r.DupDropped() != 0 {
		t.Fatal("fresh recorder reports drops")
	}
	r.IncDupDropped()
	r.IncDupDropped()
	if got := r.DupDropped(); got != 2 {
		t.Fatalf("DupDropped = %d", got)
	}
}
