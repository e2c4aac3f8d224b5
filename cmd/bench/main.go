// Command bench regenerates the paper's evaluation: Table I, Fig. 4,
// Fig. 6 and the design-choice ablations. Results print as aligned text
// tables matching the rows/series the paper reports.
//
// Usage:
//
//	bench -table1                      # all circuits, L = 3,7,11
//	bench -table1 -circuits UART,SPI -L 3,5,7
//	bench -fig4
//	bench -fig6
//	bench -ablations
//	bench -forms                       # unmerged vs merged network, L = 4,7
//	bench -backends                    # float32 / int32 / bitpacked comparison
//	bench -json -out BENCH_exec.json   # backend comparison as JSON (CI artifact)
//	bench -telemetry                   # telemetry-layer overhead (on vs off)
//	bench -all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"c2nn/internal/bench"
	"c2nn/internal/obs"
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "regenerate Table I")
		fig4      = flag.Bool("fig4", false, "regenerate Fig. 4 (polynomial generation time)")
		fig6      = flag.Bool("fig6", false, "regenerate Fig. 6 (UART L sweep)")
		ablations = flag.Bool("ablations", false, "run the design-choice ablations")
		forms     = flag.Bool("forms", false, "compare the unmerged and merged network forms (layers, connections, bit-packed cycle time at 1 worker) at L=4,7")
		backends  = flag.Bool("backends", false, "compare float32/int32/bitpacked execution backends")
		jsonOut   = flag.Bool("json", false, "run the backend comparison and emit JSON (implies -backends)")
		outPath   = flag.String("out", "", "write the -json report to this file instead of stdout")
		influence = flag.Bool("influence", false, "check the §II-B sensitivity-vs-density hypothesis over the mapped LUTs")
		faults    = flag.Bool("faults", false, "grade stuck-at fault coverage and report faults/s per backend")
		equivF    = flag.Bool("equiv", false, "time the formal equivalence checker (CNF build + solve per circuit and L)")
		equivOut  = flag.String("equiv-out", "", "write the -equiv rows as JSON to this file")
		analyzeF  = flag.Bool("analyze", false, "run the static plan analyzer and correlate its cost model against measured layer times")
		analyzeO  = flag.String("analyze-out", "", "write the -analyze rows as JSON to this file")
		activityF = flag.Bool("activity", false, "measure activity-driven execution (skip rate, speedup, bit-equality) on testbench and dense workloads")
		activityO = flag.String("activity-out", "", "write the -activity rows as JSON to this file")
		telemF    = flag.Bool("telemetry", false, "measure the continuous-telemetry layer's overhead (stats+sampler+flight recorder on vs off)")
		telemO    = flag.String("telemetry-out", "", "write the -telemetry rows as JSON to this file")
		all       = flag.Bool("all", false, "run everything")
		circuitsF = flag.String("circuits", "", "comma-separated circuit names for -table1 (default all)")
		lsF       = flag.String("L", "3,7,11", "comma-separated LUT sizes for -table1")
		batch     = flag.Int("batch", 256, "NN stimulus batch size")
		minMs     = flag.Int("min-ms", 300, "per-measurement time floor in milliseconds")
		verifyC   = flag.Int("verify-cycles", 16, "equivalence-check cycles per Table I row (0 skips)")
		tracePath = flag.String("trace", "", "record a Chrome trace of the run to this file (chrome://tracing)")
		quiet     = flag.Bool("q", false, "suppress progress lines")
	)
	flag.Parse()

	progress := os.Stderr
	if *quiet {
		progress = nil
	}
	var tr *obs.Trace
	if *tracePath != "" {
		tr = obs.New()
		defer func() {
			f, err := os.Create(*tracePath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			if err := tr.WriteChromeTrace(f); err != nil {
				fatal(err)
			}
		}()
	}
	ran := false

	if *table1 || *all {
		ran = true
		cfg := bench.DefaultTable1Config()
		cfg.Batch = *batch
		cfg.MinMeasure = time.Duration(*minMs) * time.Millisecond
		cfg.VerifyCycles = *verifyC
		cfg.Trace = tr
		if *lsF != "" {
			cfg.Ls = nil
			for _, s := range strings.Split(*lsF, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					fatal(err)
				}
				cfg.Ls = append(cfg.Ls, v)
			}
		}
		var names []string
		if *circuitsF != "" {
			for _, s := range strings.Split(*circuitsF, ",") {
				names = append(names, strings.TrimSpace(s))
			}
		}
		rows, err := bench.RunTable1(names, cfg, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\n=== Table I ===")
		fmt.Print(bench.FormatTable1(rows))
	}

	if *fig4 || *all {
		ran = true
		rows := bench.RunFig4(bench.DefaultFig4Config(), progress)
		fmt.Println("\n=== Fig. 4: polynomial generation time ===")
		fmt.Print(bench.FormatFig4(rows))
	}

	if *fig6 || *all {
		ran = true
		cfg := bench.DefaultFig6Config()
		rows, err := bench.RunFig6(cfg, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\n=== Fig. 6: UART LUT-size sweep ===")
		fmt.Print(bench.FormatFig6(rows))
	}

	if *ablations || *all {
		ran = true
		rows, err := bench.RunAblations(bench.DefaultAblationConfig(), progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\n=== Ablations ===")
		fmt.Print(bench.FormatAblations(rows))
	}

	if *forms || *all {
		ran = true
		var names []string
		if *circuitsF != "" {
			for _, s := range strings.Split(*circuitsF, ",") {
				names = append(names, strings.TrimSpace(s))
			}
		}
		rows, err := bench.RunForms(names, []int{4, 7}, *batch, time.Duration(*minMs)*time.Millisecond, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\n=== Network forms (bit-packed, 1 worker) ===")
		fmt.Print(bench.FormatForms(rows))
	}

	if *backends || *jsonOut || *all {
		ran = true
		cfg := bench.DefaultBackendsConfig()
		cfg.Batch = *batch
		cfg.MinMeasure = time.Duration(*minMs) * time.Millisecond
		cfg.Trace = tr
		var names []string
		if *circuitsF != "" {
			for _, s := range strings.Split(*circuitsF, ",") {
				names = append(names, strings.TrimSpace(s))
			}
		}
		rows, err := bench.RunBackends(names, cfg, progress)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			w := io.Writer(os.Stdout)
			if *outPath != "" {
				f, err := os.Create(*outPath)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				w = f
			}
			if err := bench.WriteBackendsJSON(w, rows); err != nil {
				fatal(err)
			}
		} else {
			fmt.Println("\n=== Execution backends ===")
			fmt.Print(bench.FormatBackends(rows))
		}
	}

	if *faults || *all {
		ran = true
		cfg := bench.DefaultFaultsConfig()
		cfg.Trace = tr
		var names []string
		if *circuitsF != "" {
			for _, s := range strings.Split(*circuitsF, ",") {
				names = append(names, strings.TrimSpace(s))
			}
		} else if !*all {
			names = nil
		}
		if *all {
			// Keep -all bounded: the protocol cores alone exercise the
			// grading path on tens of thousands of fault classes.
			names = []string{"UART", "SPI"}
		}
		rows, err := bench.RunFaults(names, cfg, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\n=== Fault grading (faults/s per backend) ===")
		fmt.Print(bench.FormatFaults(rows))
	}

	if *equivF || *all {
		ran = true
		cfg := bench.DefaultEquivConfig()
		cfg.Trace = tr
		if *lsF != "" {
			cfg.Ls = nil
			for _, s := range strings.Split(*lsF, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					fatal(err)
				}
				cfg.Ls = append(cfg.Ls, v)
			}
		}
		var names []string
		if *circuitsF != "" {
			for _, s := range strings.Split(*circuitsF, ",") {
				names = append(names, strings.TrimSpace(s))
			}
		}
		if *all && *circuitsF == "" {
			// Keep -all bounded: the full matrix is minutes-scale; the
			// protocol cores still exercise every checker phase.
			names = []string{"UART", "SPI"}
		}
		rows, err := bench.RunEquiv(names, cfg, progress)
		if err != nil {
			fatal(err)
		}
		if *equivOut != "" {
			f, err := os.Create(*equivOut)
			if err != nil {
				fatal(err)
			}
			if err := bench.WriteEquivJSON(f, rows); err != nil {
				f.Close()
				fatal(err)
			}
			f.Close()
		}
		fmt.Println("\n=== Formal equivalence (SAT miters + per-LUT chain) ===")
		fmt.Print(bench.FormatEquiv(rows))
	}

	if *analyzeF || *all {
		ran = true
		cfg := bench.DefaultAnalyzeConfig()
		cfg.Batch = *batch
		cfg.MinMeasure = time.Duration(*minMs) * time.Millisecond
		cfg.Trace = tr
		var names []string
		if *circuitsF != "" {
			for _, s := range strings.Split(*circuitsF, ",") {
				names = append(names, strings.TrimSpace(s))
			}
		}
		rows, err := bench.RunAnalyze(names, cfg, progress)
		if err != nil {
			fatal(err)
		}
		if *analyzeO != "" {
			f, err := os.Create(*analyzeO)
			if err != nil {
				fatal(err)
			}
			if err := bench.WriteAnalyzeJSON(f, rows); err != nil {
				f.Close()
				fatal(err)
			}
			f.Close()
		}
		fmt.Println("\n=== Static plan analysis (clusters, cost model, aliasing proof) ===")
		fmt.Print(bench.FormatAnalyze(rows))
	}

	if *activityF || *all {
		ran = true
		cfg := bench.DefaultActivityConfig()
		cfg.Batch = *batch
		cfg.MinMeasure = time.Duration(*minMs) * time.Millisecond
		var names []string
		if *circuitsF != "" {
			for _, s := range strings.Split(*circuitsF, ",") {
				names = append(names, strings.TrimSpace(s))
			}
		}
		rows, err := bench.RunActivity(names, cfg, progress)
		if err != nil {
			fatal(err)
		}
		if *activityO != "" {
			f, err := os.Create(*activityO)
			if err != nil {
				fatal(err)
			}
			if err := bench.WriteActivityJSON(f, rows); err != nil {
				f.Close()
				fatal(err)
			}
			f.Close()
		}
		fmt.Println("\n=== Activity-driven execution (skip rate, speedup) ===")
		fmt.Print(bench.FormatActivity(rows))
	}

	if *telemF || *all {
		ran = true
		cfg := bench.DefaultTelemetryConfig()
		cfg.Batch = *batch
		var names []string
		if *circuitsF != "" {
			for _, s := range strings.Split(*circuitsF, ",") {
				names = append(names, strings.TrimSpace(s))
			}
		}
		rows, err := bench.RunTelemetry(names, cfg, progress)
		if err != nil {
			fatal(err)
		}
		if *telemO != "" {
			f, err := os.Create(*telemO)
			if err != nil {
				fatal(err)
			}
			if err := bench.WriteTelemetryJSON(f, rows); err != nil {
				f.Close()
				fatal(err)
			}
			f.Close()
		}
		fmt.Println("\n=== Telemetry overhead (stats + sampler + flight recorder) ===")
		fmt.Print(bench.FormatTelemetry(rows))
	}

	if *influence || *all {
		ran = true
		rows, err := bench.RunInfluence(nil, 7, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\n=== §II-B: LUT sensitivity vs polynomial density (L=7) ===")
		fmt.Print(bench.FormatInfluence(rows))
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
