// Command benchall regenerates every table and figure of the paper's
// evaluation section and writes them to stdout (and optionally a file).
//
//	benchall              # 10x time-compressed, reduced parallelism grid
//	benchall -full        # paper-scale: 60 s runs, 5..100 workers (hours)
//	benchall -out results.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"checkmate"
	"checkmate/internal/metrics"
)

func main() {
	var (
		full    = flag.Bool("full", false, "paper-scale configuration (60 s runs, up to 100 workers)")
		out     = flag.String("out", "", "also write results to this file")
		only    = flag.String("only", "", "run a single experiment: table1, fig7, table2, fig8, fig9, fig10, fig11, recovery, rto, table3, fig12, fig13, table4, scenarios")
		scale   = flag.Float64("scale", 0, "override the time-compression factor")
		workers = flag.Int("max-workers", 0, "cap the parallelism grid at this many workers")
	)
	flag.Parse()

	var suite *checkmate.Suite
	if *full {
		suite = checkmate.FullPaperSuite()
	} else {
		suite = checkmate.NewSuite()
	}
	if *scale > 0 {
		suite.Scale = *scale
	}
	if *workers > 0 {
		capList := func(ws []int) []int {
			var out []int
			for _, w := range ws {
				if w <= *workers {
					out = append(out, w)
				}
			}
			if len(out) == 0 {
				out = []int{*workers}
			}
			return out
		}
		suite.Workers = capList(suite.Workers)
		suite.TableWorkers = capList(suite.TableWorkers)
		suite.TimelineWorkers = capList(suite.TimelineWorkers)
		suite.CyclicWorkers = capList(suite.CyclicWorkers)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	type experiment struct {
		name string
		run  func() ([]*metrics.Table, error)
	}
	one := func(f func() (*metrics.Table, error)) func() ([]*metrics.Table, error) {
		return func() ([]*metrics.Table, error) {
			t, err := f()
			if err != nil {
				return nil, err
			}
			return []*metrics.Table{t}, nil
		}
	}
	experiments := []experiment{
		{"table1", func() ([]*metrics.Table, error) { return []*metrics.Table{suite.TableIFeatures()}, nil }},
		{"fig7", one(suite.Fig7MST)},
		{"table2", one(suite.TableIIOverhead)},
		{"fig8", one(suite.Fig8CheckpointTime)},
		{"fig9", func() ([]*metrics.Table, error) { return suite.FigLatencyTimeline(50) }},
		{"fig10", func() ([]*metrics.Table, error) { return suite.FigLatencyTimeline(99) }},
		{"fig11", one(suite.Fig11RestartTime)},
		{"recovery", one(suite.RecoveryTimeTable)},
		{"rto", one(suite.RTOBreakdownTable)},
		{"table3", one(suite.TableIIIInvalid)},
		{"fig12-50", func() ([]*metrics.Table, error) {
			t, err := suite.Fig12Skew(0.5)
			return []*metrics.Table{t}, err
		}},
		{"fig12-80", func() ([]*metrics.Table, error) {
			t, err := suite.Fig12Skew(0.8)
			return []*metrics.Table{t}, err
		}},
		{"fig13", one(suite.Fig13SkewRestart)},
		{"table4", one(suite.TableIVCyclic)},
		{"ext-unaligned", one(suite.ExtensionUnalignedTable)},
		{"ext-cic-variants", one(suite.ExtensionCICVariantsTable)},
		{"ext-unaligned-cyclic", one(suite.ExtensionUnalignedCyclicTable)},
		{"ext-semantics", one(suite.ExtensionSemanticsTable)},
		{"ext-straggler", one(suite.ExtensionStragglerTable)},
		{"ext-queries", one(suite.ExtensionNewQueriesTable)},
		{"ext-output", one(suite.ExtensionOutputTable)},
		{"ext-eventtime", one(suite.ExtensionEventTimeTable)},
		{"ext-rollback-scope", one(suite.ExtensionRollbackScopeTable)},
		{"abl-policy", one(suite.AblationTriggerPolicyTable)},
		{"abl-compress", one(suite.AblationCompressionTable)},
		{"abl-gc", one(suite.AblationGCTable)},
		{"scenarios", one(suite.ScenarioTable)},
	}

	start := time.Now()
	fmt.Fprintf(w, "CheckMate reproduction — scale %.2fx, workers %v\n\n", suite.Scale, suite.Workers)
	for _, e := range experiments {
		if *only != "" && *only != e.name && !(len(*only) >= 5 && (*only) == "fig12" && (e.name == "fig12-50" || e.name == "fig12-80")) {
			continue
		}
		t0 := time.Now()
		tables, err := e.run()
		if err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		for _, t := range tables {
			fmt.Fprintln(w, t.String())
		}
		fmt.Fprintf(w, "(%s took %v)\n\n", e.name, time.Since(t0).Round(time.Second))
	}
	fmt.Fprintf(w, "total: %v\n", time.Since(start).Round(time.Second))
}
