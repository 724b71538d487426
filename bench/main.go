// Command bench is the repository's benchmark (see BENCHMARK.json and
// README.md beside this file).
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload in this process and prints, as the last line of its
// standard output, the result object the benchmark contract asks for.
// Without --workload it runs the whole set, each workload in its own child
// process, prints the budget tables and writes a result file that
// -compare takes:
//
//	bench [-seed n] [-seconds s] [-runs r] [-out results.json]
//	bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"checkmate/internal/protocol"
)

// benchProcs is the GOMAXPROCS every workload runs under, whatever the
// host has: two workers' instance goroutines share two cores.
const benchProcs = 2

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// size is the sizing every run of this process uses; only the smoke test
// changes it.
var size = fullSizing

// run is main without the exit: 0 on success, 1 when results were wrong or
// a comparison found a regression, 2 when the benchmark could not run.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run this one workload in this process")
		seed    = fs.Int64("seed", 1, "input seed; the only argument that changes the inputs")
		seconds = fs.Float64("seconds", 20, "how long one run measures")
		traced  = fs.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = per-layer metrics from a traced run")
		runs    = fs.Int("runs", 3, "set mode: untraced runs per workload")
		out     = fs.String("out", "", "set mode: result file (default bench/out/results.json)")
		compare = fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		worse, err := compareFiles(root, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		runtime.GOMAXPROCS(benchProcs)
		res, err := runWorkload(w, root, *seed, *seconds, *traced != 0, size)
		if err != nil {
			return fail(err)
		}
		if err := res.emit(root, stdout); err != nil {
			return fail(err)
		}
		if res.Failed > 0 {
			return 1
		}
	default:
		if *out == "" {
			*out = filepath.Join(root, "bench", "out", "results.json")
		}
		if err := runSet(root, *seed, *seconds, *runs, *out, stdout); err != nil {
			return fail(err)
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// findRoot locates the checkout: the nearest directory, from the working
// directory upwards, that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// measured is one metric of one run: the reported value and the samples it
// is the median (or percentile) of.
type measured struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples,omitempty"`
}

// runResult is one run of one workload, as written to bench/out for the
// set runner to collect.
type runResult struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Traced    bool                `json:"traced"`
	Env       environment         `json:"env"`
	Records   map[string]uint64   `json:"records"`
	Oracle    uint64              `json:"oracle_results"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	Budget    []budgetRow         `json:"budget,omitempty"`
	Notes     []string            `json:"notes,omitempty"`
}

// budgetRow is one line of the ns-per-record budget.
type budgetRow struct {
	Layer     string  `json:"layer"`
	NSPerOp   float64 `json:"ns_per_op"`
	OpsPerRec float64 `json:"ops_per_rec"`
	NSPerRec  float64 `json:"ns_per_rec"`
}

func (r *runResult) set(defs []metricDef, name string, value float64, samples ...float64) {
	r.Metrics[name] = measured{Unit: unitOf(defs, name), Value: value, Samples: samples}
}

// traceArg is the --trace argument of a traced or untraced run.
func traceArg(traced bool) string {
	if traced {
		return "1"
	}
	return "0"
}

// runFile is where a run's full result is kept for the set runner.
func runFile(root, workload string, traced bool) string {
	return filepath.Join(root, "bench", "out", workload+".trace"+traceArg(traced)+".json")
}

// emit writes the run's full result to bench/out, prints every metric with
// its spread, and ends with the one-line result object of the contract.
func (r *runResult) emit(root string, w io.Writer) error {
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(runFile(root, r.Workload, r.Traced), raw, 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("%-38s %14.4f %-7s", name, m.Value, m.Unit)
		if s := summarize(m.Samples); s.N > 1 {
			line += fmt.Sprintf(" n=%d min=%.4f q1=%.4f median=%.4f q3=%.4f max=%.4f", s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max)
		}
		fmt.Fprintln(w, line)
	}
	printBudget(w, r.Workload, r.Budget)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	fmt.Fprintf(w, "%s seed=%d: attempted=%d failed=%d failed_share=%g\n", r.Workload, r.Seed, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	raw, err = json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(raw))
	return err
}

// expectResults turns the oracle's result count into the count every later
// run must deliver. The smoke test swaps in a wrong expectation to check
// that it is reported as failed operations and not absorbed.
var expectResults = func(oracle uint64) uint64 { return oracle }

// runWorkload is one run: set-up, the oracle drain, closed drains for
// seconds minus the paced run's length, then the paced failure run. A
// traced run spends the drain time on alternating untraced and traced
// drains and adds the layer replay.
func runWorkload(w *workload, root string, seed int64, seconds float64, traced bool, sz sizing) (*runResult, error) {
	tmp := filepath.Join(root, "bench", "out", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Env:     readEnvironment(root, tmp),
		Metrics: map[string]measured{},
	}
	n := int(float64(w.records) * sz.recordScale)

	// Set-up: generate, build the workload's engine, start it. The first
	// set-up's input feeds the drains and the second's the paced run; a
	// traced run needs no more, an untraced one repeats for the median.
	var inputs []*input
	var setupS []float64
	setups := max(sz.setups, 2)
	if traced {
		setups = 2
	}
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		span := closedWindow
		if i == 1 {
			span = sz.pacedDur
		}
		in, err := w.generate(seed, n, span)
		if err != nil {
			return nil, err
		}
		r, err := w.newEngine(in, engineOpts{paced: i == 1, tmpParent: tmp})
		if err != nil {
			return nil, err
		}
		err = r.eng.Start()
		setupS = append(setupS, time.Since(t0).Seconds())
		r.stop()
		r.cleanup()
		if err != nil {
			return nil, err
		}
		if i < 2 {
			inputs = append(inputs, in)
		}
		runtime.GC()
	}
	closed, pacedIn := inputs[0], inputs[1]
	res.Records = closed.counts
	inputRSS := procStatusMiB("VmRSS")

	// The oracle: a failure-free drain with checkpointing off. Its result
	// count is what every later run must deliver; it also warms the frame
	// pools and faults the input in.
	oracle, err := w.drain(closed, 0, engineOpts{proto: protocol.None{}, tmpParent: tmp})
	if err != nil {
		return nil, err
	}
	want := expectResults(oracle.sink)
	res.Oracle = want
	if want == 0 {
		return nil, fmt.Errorf("%s: the oracle drain delivered no results", w.name)
	}

	var plain, withTrace []drainResult
	budget := time.Duration((seconds - sz.pacedDur.Seconds()) * float64(time.Second))
	phase := time.Now()
	for i := 0; i < sz.minDrains || time.Since(phase) < budget; i++ {
		o := engineOpts{traced: traced && i%2 == 1, tmpParent: tmp}
		d, err := w.drain(closed, want, o)
		if err != nil {
			return nil, err
		}
		res.Attempted += want
		res.Failed += max(d.sink, want) - min(d.sink, want)
		if o.traced {
			withTrace = append(withTrace, d)
		} else {
			plain = append(plain, d)
		}
	}

	p, err := w.paced(pacedIn, want, sz, tmp)
	if err != nil {
		return nil, err
	}
	res.Attempted += p.attempted
	res.Failed += p.failed
	if p.restarted < p.planned {
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d injected failures never recovered", p.planned-p.restarted, p.planned))
	}
	if len(p.restartMS) == 0 || len(p.latMS) == 0 {
		return nil, fmt.Errorf("%s: the paced run recorded %d restarts and %d deliveries", w.name, len(p.restartMS), len(p.latMS))
	}

	if !traced {
		var rps, allocs []float64
		for _, d := range plain {
			rps = append(rps, d.rps())
			allocs = append(allocs, float64(d.mem.mallocs)/float64(d.input))
		}
		res.set(endToEnd, "drain_rps", median(rps), rps...)
		res.set(endToEnd, "allocs_per_rec", median(allocs), allocs...)
		// The mean, not the median: results come in two kinds, undisturbed
		// (under a millisecond) and rolled back by a crash (hundreds), and the
		// median lands wherever the rolled-back share puts it. At 55% of
		// results on q1-unc-durable it moved 150–235 ms between identical
		// runs, where the mean moved 3%. harness.lat_p50_ms keeps the median.
		res.set(endToEnd, "lat_mean_ms", mean(p.latMS))
		res.set(endToEnd, "lat_p99_ms", percentile(p.latMS, 0.99))
		// Not the median: each crash restores more state than the one before,
		// so the six restart times trend upwards and a median reads only the
		// middle two. The mean uses all of the trend; leaving the slowest out
		// keeps one GC-struck restart from deciding the run.
		res.set(endToEnd, "restart_ms", meanWithoutSlowest(p.restartMS), p.restartMS...)
		res.set(endToEnd, "setup_s", median(setupS), setupS...)
		res.set(endToEnd, "peak_rss_mb", procStatusMiB("VmHWM"))
		res.Notes = append(res.Notes, fmt.Sprintf("lat_mean_ms/lat_p99_ms over %d deliveries, restart_ms over %d failures, drain_rps over %d drains",
			len(p.latMS), len(p.restartMS), len(plain)))
		return res, nil
	}

	rp := newReplayer(min(sz.replayRecords, n))
	if err := rp.run(closed, sz.replayRecords, w.durable, p.instances, tmp); err != nil {
		return nil, err
	}
	if err := rp.recoveryLine(p.instances, p.channels, p.metas); err != nil {
		return nil, err
	}
	spans, err := rp.write(filepath.Join(root, "bench", "out", w.name+".trace.json"))
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("layer replay: %d spans in bench/out/%s.trace.json", spans, w.name))
	w.layerMetrics(res, layerInputs{
		closed: closed, oracle: oracle, plain: plain, traced: withTrace, paced: p,
		replay: rp.out, inputRSS: inputRSS,
	})
	return res, nil
}
