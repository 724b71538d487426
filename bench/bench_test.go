package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"checkmate/internal/trace"
)

// tinySizing shrinks every workload to a few thousand records and one
// failure, so the whole set runs in a few seconds. Two seconds of paced
// schedule is what UNC needs to commit any output at all: its stable
// recovery line trails by a couple of 500 ms checkpoints.
var tinySizing = sizing{
	recordScale:   0.01,
	pacedDur:      2 * time.Second,
	failures:      1,
	minDrains:     2,
	setups:        2,
	replayRecords: 2048,
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricTablesMatchBenchmarkFile pins the metric tables to the
// committed BENCHMARK.json: name, unit and direction, in order.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	var fromFile []metricDef
	for _, m := range bf.EndToEnd {
		fromFile = append(fromFile, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		fromFile = append(fromFile, metricDef{m.Name, m.Unit, m.Better})
	}
	inCode := append(append([]metricDef(nil), endToEnd...), perLayer...)
	if fmt.Sprint(fromFile) != fmt.Sprint(inCode) {
		t.Errorf("metric tables differ:\nBENCHMARK.json: %v\nmetrics.go:     %v", fromFile, inCode)
	}
	seen := map[string]bool{}
	for _, d := range inCode {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q is outside the contract's alphabet", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric name %q is used twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestSmoke runs all four workloads at tiny scale, untraced and traced, and
// checks that each run is correct, emits exactly the metrics BENCHMARK.json
// names for its mode, and (traced) leaves a Chrome trace whose spans nest.
// The eight runs mostly wait on their paced schedules, so they share the
// clock: goroutines here, since t.Parallel stops at GOMAXPROCS.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *runResult
		err error
	}
	outcomes := make([][2]outcome, len(workloads))
	var wg sync.WaitGroup
	for i := range workloads {
		for j, traced := range []bool{false, true} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := runWorkload(&workloads[i], root, 1, 0, traced, tinySizing)
				outcomes[i][j] = outcome{res, err}
			}()
		}
	}
	wg.Wait()
	for i, w := range workloads {
		for j, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				res, err := outcomes[i][j].res, outcomes[i][j].err
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("attempted %d, failed %d (%v)", res.Attempted, res.Failed, res.Notes)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s not emitted", d.name)
					} else if m.Unit != d.unit {
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(defs))
				}
				if !traced {
					for _, d := range defs {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v, must be positive", d.name, res.Metrics[d.name].Value)
						}
					}
					return
				}
				// ValidateChromeFile runs trace.CheckNesting on every track.
				spans, err := trace.ValidateChromeFile(filepath.Join(root, "bench", "out", w.name+".trace.json"))
				if err != nil || spans == 0 {
					t.Errorf("replay trace: %d spans, %v", spans, err)
				}
				if len(res.Budget) == 0 {
					t.Fatal("no budget table")
				}
				var sum float64
				for _, row := range res.Budget[:len(res.Budget)-1] {
					sum += row.NSPerRec
				}
				if total := res.Budget[len(res.Budget)-1].NSPerRec; math.Abs(sum-total) > 1e-6*math.Abs(total) {
					t.Errorf("budget rows sum to %v, harness.cpu_ns_per_rec is %v", sum, total)
				}
			})
		}
	}
}

// TestWrongOracleFails checks that an expectation the engine does not meet
// becomes failed operations and a non-zero exit, not a quiet pass.
func TestWrongOracleFails(t *testing.T) {
	size, expectResults = tinySizing, func(oracle uint64) uint64 { return oracle / 2 }
	size.pacedDur = 600 * time.Millisecond // q1-coor commits output with every round
	defer func() { size, expectResults = fullSizing, func(oracle uint64) uint64 { return oracle } }()
	if code := run([]string{"-workload", workloads[0].name, "-seconds", "0"}, io.Discard); code != 1 {
		t.Errorf("exit code %d with a halved oracle count, want 1", code)
	}
}
