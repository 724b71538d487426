package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the tools read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// metricSummary is one metric of one workload in a result file: the spread
// of its value over the set's runs.
type metricSummary struct {
	Unit string `json:"unit"`
	summary
}

// workloadSummary is one workload of a result file.
type workloadSummary struct {
	Records     map[string]uint64        `json:"records"`
	Attempted   uint64                   `json:"attempted"`
	Failed      uint64                   `json:"failed"`
	FailedShare float64                  `json:"failed_share"`
	EndToEnd    map[string]metricSummary `json:"end_to_end"`
	PerLayer    map[string]metricSummary `json:"per_layer"`
	Budget      []budgetRow              `json:"budget"`
}

// resultFile is what a whole set of runs leaves behind and -compare reads.
type resultFile struct {
	Env       environment                 `json:"env"`
	Seed      int64                       `json:"seed"`
	Seconds   float64                     `json:"seconds"`
	Runs      int                         `json:"runs"`
	Workloads map[string]*workloadSummary `json:"workloads"`
}

// runSet runs every workload, each run in a child process of its own so
// that peak RSS, GC state and frame pools start fresh: runs untraced runs
// (seeds seed, seed+1, …) and one traced run per workload.
func runSet(root string, seed int64, seconds float64, runs int, out string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultFile{Seed: seed, Seconds: seconds, Runs: runs, Workloads: map[string]*workloadSummary{}}
	anyFailed := false
	for i := range workloads {
		w := &workloads[i]
		ws := &workloadSummary{EndToEnd: map[string]metricSummary{}, PerLayer: map[string]metricSummary{}}
		set.Workloads[w.name] = ws
		values := map[string][]float64{} // metric → one value per untraced run
		for run := 0; run <= runs; run++ {
			traced := run == runs
			cmd := exec.Command(self,
				"-workload", w.name,
				"-seed", strconv.FormatInt(seed+int64(run%max(runs, 1)), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", traceArg(traced))
			cmd.Dir, cmd.Stdout, cmd.Stderr = root, stdout, os.Stderr
			fmt.Fprintf(stdout, "== %s (run %d of %d, traced=%v)\n", w.name, run+1, runs+1, traced)
			runErr := cmd.Run()
			raw, err := os.ReadFile(runFile(root, w.name, traced))
			if err != nil {
				return fmt.Errorf("%s: %v (and no result file: %w)", w.name, runErr, err)
			}
			var r runResult
			if err := json.Unmarshal(raw, &r); err != nil {
				return err
			}
			set.Env, ws.Records = r.Env, r.Records
			ws.Attempted += r.Attempted
			ws.Failed += r.Failed
			if traced {
				ws.Budget = r.Budget
				for name, m := range r.Metrics {
					ws.PerLayer[name] = metricSummary{m.Unit, summarize([]float64{m.Value})}
				}
				continue
			}
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
				ws.EndToEnd[name] = metricSummary{m.Unit, summarize(values[name])}
			}
		}
		ws.FailedShare = ratio(float64(ws.Failed), float64(ws.Attempted))
		anyFailed = anyFailed || ws.Failed > 0
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%-16s %-16s %14s %-6s %5s %14s %14s\n", "workload", "metric", "median", "unit", "n", "q1", "q3")
	for i := range workloads {
		ws := set.Workloads[workloads[i].name]
		for _, d := range endToEnd {
			m := ws.EndToEnd[d.name]
			fmt.Fprintf(stdout, "%-16s %-16s %14.4f %-6s %5d %14.4f %14.4f\n", workloads[i].name, d.name, m.Median, m.Unit, m.N, m.Q1, m.Q3)
		}
		fmt.Fprintf(stdout, "%-16s %-16s %14g %-6s %5d\n", workloads[i].name, "failed_share", ws.FailedShare, "ratio", ws.Attempted)
	}
	fmt.Fprintln(stdout, "results written to", out)
	if anyFailed {
		return fmt.Errorf("failed_share > 0: some expected results were missing, extra or duplicated")
	}
	return nil
}

// compareFiles prints, per end-to-end metric and workload, both sets'
// medians and quartiles and a verdict against the bound in BENCHMARK.json:
// worse or better when the second median is off the first by more than the
// bound, unresolved when either set's inter-quartile spread is itself
// wider than the bound, ok otherwise. Per-layer metrics are listed without
// a verdict. It reports whether anything is worse.
func compareFiles(root, pathA, pathB string, w io.Writer) (worse bool, err error) {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return false, err
	}
	var a, b resultFile
	for _, f := range []struct {
		path string
		dst  *resultFile
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(raw, f.dst); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	fmt.Fprintf(w, "a: %s  commit %s  seed %d  runs %d\nb: %s  commit %s  seed %d  runs %d\n\n",
		pathA, a.Env.Commit, a.Seed, a.Runs, pathB, b.Env.Commit, b.Seed, b.Runs)
	fmt.Fprintf(w, "%-16s %-16s %12s %22s %12s %22s %8s %6s  %s\n", "workload", "metric", "a median", "a [q1,q3]", "b median", "b [q1,q3]", "change", "bound", "verdict")
	for _, wl := range bf.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-16s missing from one of the files\n", wl.Name)
			worse = true
			continue
		}
		for _, m := range bf.EndToEnd {
			ma, mb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			change := ratio(mb.Median-ma.Median, ma.Median)
			gain := change // positive = better
			if m.Better == "lower" {
				gain = -change
			}
			verdict := "ok"
			switch {
			case ma.spread() > m.Bound || mb.spread() > m.Bound:
				verdict = "unresolved"
			case gain < -m.Bound:
				verdict, worse = "worse", true
			case gain > m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-16s %-16s %12.4f %22s %12.4f %22s %+7.1f%% %5.0f%%  %s\n", wl.Name, m.Name,
				ma.Median, fmt.Sprintf("[%.4g,%.4g]", ma.Q1, ma.Q3), mb.Median, fmt.Sprintf("[%.4g,%.4g]", mb.Q1, mb.Q3),
				100*change, 100*m.Bound, verdict)
		}
		verdict := "ok"
		if wb.FailedShare > wa.FailedShare {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(w, "%-16s %-16s %12g %22s %12g %22s %8s %6s  %s\n", wl.Name, "failed_share", wa.FailedShare, "", wb.FailedShare, "", "", "any", verdict)
	}
	fmt.Fprintf(w, "\n%-16s %-38s %14s %14s %8s\n", "workload", "per-layer metric", "a", "b", "change")
	for _, wl := range bf.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		names := make([]string, 0, len(wa.PerLayer))
		for name := range wa.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			va, vb := wa.PerLayer[name].Median, wb.PerLayer[name].Median
			fmt.Fprintf(w, "%-16s %-38s %14.4f %14.4f %+7.1f%%\n", wl.Name, name, va, vb, 100*ratio(vb-va, va))
		}
	}
	return worse, nil
}
