// Command c2nn is the compiler CLI: it reads Verilog sources (or a
// built-in benchmark circuit) and produces a .c2nn neural-network model
// file, mirroring the paper's Fig. 1 pipeline end to end.
//
// Usage:
//
//	c2nn -o design.c2nn -L 7 [-top name] file1.v file2.v ...
//	c2nn -o aes.c2nn -L 11 -circuit AES
//	c2nn lint -all
//	c2nn lint -circuit AES -L 4 -json
//	c2nn analyze -circuit UART -L 4 -top 10 -clusters
//	c2nn analyze -all -json
//	c2nn fault -tb testbenches/uart_smoke.tb -backend bitpacked -json
//	c2nn fault -circuit SPI -random 64 -limit 2000
//	c2nn profile -circuit UART -backend bitpacked -trace trace.json
//	c2nn watch -tb testbenches/uart_smoke.tb -serve :9090
//
// Flags:
//
//	-L n         LUT size hyperparameter (default 7)
//	-top name    top module (default: inferred)
//	-o path      output model file (default: <top>.c2nn)
//	-circuit n   compile a built-in benchmark circuit instead of files
//	-merge       apply the depth-halving layer merge (§III-D): the paper's
//	             GPU-shaped form; the default unmerged form runs faster
//	             on the CPU backends
//	-flowmap     use the FlowMap depth-optimal mapper
//	-stats       print netlist / mapping / network statistics
//	-check       run the irlint IR verifier at every stage boundary
//
// The lint subcommand runs the cross-stage verifier without writing a
// model; see "c2nn lint -h". The fault subcommand grades stuck-at/SEU
// fault coverage on the batched engine; see "c2nn fault -h" and
// docs/FAULT.md. The profile subcommand compiles and runs a circuit
// with the observability sink attached, exporting Chrome traces and
// metrics; the watch subcommand monitors a looping replay live, with a
// Prometheus /metrics endpoint, a sampled time series and a flight
// recorder; see "c2nn profile -h", "c2nn watch -h" and
// docs/OBSERVABILITY.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"c2nn/internal/aig"
	"c2nn/internal/circuits"
	"c2nn/internal/irlint"
	"c2nn/internal/irlint/diag"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/synth"
	"c2nn/internal/verilog"
)

// lintStage folds one stage's diagnostics into the running -check
// report, printing warnings and infos as they appear; Error-severity
// diagnostics abort compilation at the stage boundary.
func lintStage(total, stage *diag.Report) error {
	total.Add(stage.Diags...)
	if stage.HasErrors() {
		stage.Sort()
		fmt.Fprint(os.Stderr, stage)
		c := stage.Counts()
		return fmt.Errorf("check: %d error diagnostics at the %s stage boundary",
			c.Errors, stage.Diags[0].Stage)
	}
	for _, d := range stage.Diags {
		fmt.Fprintln(os.Stderr, d)
	}
	return nil
}

// printLintSummary prints the -check diagnostic counts per stage (the
// -stats companion line for the verifier).
func printLintSummary(report *diag.Report) {
	byStage := report.StageCounts()
	stages := make([]string, 0, len(byStage))
	for s := range byStage {
		stages = append(stages, string(s))
	}
	sort.Strings(stages)
	total := report.Counts()
	fmt.Printf("lint: %d errors, %d warnings, %d infos", total.Errors, total.Warnings, total.Infos)
	for _, s := range stages {
		c := byStage[diag.Stage(s)]
		fmt.Printf("; %s %d/%d/%d", s, c.Errors, c.Warnings, c.Infos)
	}
	fmt.Println()
}

// writeAIG lowers the flip-flop-cut combinational core to an AIG and
// writes it in AIGER format (ASCII for .aag paths, binary otherwise).
func writeAIG(nl *netlist.Netlist, path string) error {
	g, lits, err := aig.FromNetlist(nl)
	if err != nil {
		return err
	}
	outs := make([]aig.Lit, 0, len(nl.CombOutputs()))
	for _, net := range nl.CombOutputs() {
		outs = append(outs, lits[net])
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".aag") {
		return g.WriteAAG(f, outs)
	}
	return g.WriteAIGBinary(f, outs)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		if err := runLint(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "c2nn lint:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "equiv" {
		if err := runEquiv(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "c2nn equiv:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "fault" {
		if err := runFault(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "c2nn fault:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		if err := runAnalyze(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "c2nn analyze:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "profile" {
		if err := runProfile(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "c2nn profile:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "watch" {
		if err := runWatch(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "c2nn watch:", err)
			os.Exit(1)
		}
		return
	}

	var (
		lutSize = flag.Int("L", 7, "LUT size (max inputs per Boolean function)")
		top     = flag.String("top", "", "top module name (default: inferred)")
		out     = flag.String("o", "", "output model path (default: <top>.c2nn)")
		circuit = flag.String("circuit", "", "compile a built-in benchmark circuit (AES, SHA, SPI, UART, DMA, RISC-V interface)")
		merge   = flag.Bool("merge", false, "apply the §III-D layer merge (the paper's GPU-shaped form; default keeps the hidden/linear alternation)")
		flowmap = flag.Bool("flowmap", false, "use the FlowMap depth-optimal mapper instead of priority cuts")
		stats   = flag.Bool("stats", false, "print pipeline statistics")
		check   = flag.Bool("check", false, "run the irlint IR verifier at every stage boundary; fail on error diagnostics")
		aigOut  = flag.String("aig", "", "also write the combinational core as an AIGER file (.aag = ASCII, else binary)")
	)
	flag.Parse()

	if err := run(*lutSize, *top, *out, *circuit, *merge, *flowmap, *stats, *check, *aigOut, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "c2nn:", err)
		os.Exit(1)
	}
}

// runLint implements the "c2nn lint" subcommand: it runs the
// cross-stage IR verifier over built-in circuits or Verilog files and
// reports every diagnostic, without writing a model. The exit status is
// nonzero only when Error-severity diagnostics are found (warnings and
// infos are reported but do not fail the run).
func runLint(args []string) error {
	fs := flag.NewFlagSet("c2nn lint", flag.ExitOnError)
	var (
		lutSize = fs.Int("L", 7, "LUT size (max inputs per Boolean function)")
		top     = fs.String("top", "", "top module name (default: inferred)")
		circuit = fs.String("circuit", "", "lint a built-in benchmark circuit")
		all     = fs.Bool("all", false, "lint every built-in benchmark circuit")
		flowmap = fs.Bool("flowmap", false, "use the FlowMap depth-optimal mapper instead of priority cuts")
		jsonOut = fs.Bool("json", false, "emit machine-readable JSON instead of text")
		rules   = fs.Bool("rules", false, "list every registered rule and exit")
		noEquiv = fs.Bool("noequiv", false, "skip the SAT equivalence stage (rules EQ001-EQ008)")
		merge   = fs.Bool("merge", false, "lint the §III-D merged network instead of the default unmerged one")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: c2nn lint [-all | -circuit name | file.v ...] [-L n] [-merge] [-json]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *rules {
		for _, r := range diag.Rules() {
			fmt.Printf("%s  %-8s %-7s  %s\n", r.ID, r.Stage, r.Severity, r.Summary)
		}
		return nil
	}

	type target struct {
		name    string
		sources map[string]string
		order   []string
		top     string
	}
	var targets []target
	switch {
	case *all:
		for _, c := range circuits.All() {
			targets = append(targets, target{name: c.Name, sources: c.Generate(), top: c.Top})
		}
	case *circuit != "":
		c, err := circuits.ByName(*circuit)
		if err != nil {
			return err
		}
		targets = append(targets, target{name: c.Name, sources: c.Generate(), top: c.Top})
	case fs.NArg() > 0:
		sources := make(map[string]string, fs.NArg())
		var order []string
		for _, f := range fs.Args() {
			data, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			sources[f] = string(data)
			order = append(order, f)
		}
		targets = append(targets, target{name: strings.Join(fs.Args(), " "), sources: sources, order: order, top: *top})
	default:
		return fmt.Errorf("no input: pass Verilog files, -circuit or -all (see c2nn lint -h)")
	}

	opts := irlint.Options{L: *lutSize, FlowMap: *flowmap, Merge: *merge, NoEquiv: *noEquiv}
	type result struct {
		Circuit string          `json:"circuit"`
		Report  json.RawMessage `json:"report"`
	}
	var results []result
	failed := false
	for _, t := range targets {
		_, report, err := irlint.CheckSources(t.sources, t.order, t.top, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		if report.HasErrors() {
			failed = true
		}
		if *jsonOut {
			var buf bytes.Buffer
			if err := report.WriteJSON(&buf); err != nil {
				return err
			}
			results = append(results, result{Circuit: t.name, Report: buf.Bytes()})
			continue
		}
		c := report.Counts()
		fmt.Printf("%s (L=%d): %d errors, %d warnings, %d infos\n", t.name, *lutSize, c.Errors, c.Warnings, c.Infos)
		for _, d := range report.Diags {
			fmt.Printf("  %s\n", d)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if len(results) == 1 {
			if err := enc.Encode(results[0].Report); err != nil {
				return err
			}
		} else if err := enc.Encode(results); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("error diagnostics found")
	}
	return nil
}

func run(lutSize int, top, out, circuit string, merge, useFlowmap, stats, check bool, aigOut string, files []string) error {
	start := time.Now()
	report := &diag.Report{}

	var nl *netlist.Netlist
	switch {
	case circuit != "":
		c, err := circuits.ByName(circuit)
		if err != nil {
			return err
		}
		nl, err = c.Elaborate()
		if err != nil {
			return err
		}
	case len(files) > 0:
		sources := make(map[string]string, len(files))
		var order []string
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			sources[f] = string(data)
			order = append(order, f)
		}
		design, err := verilog.BuildDesign(sources, order)
		if err != nil {
			return err
		}
		if check {
			if err := lintStage(report, irlint.Design(design)); err != nil {
				return err
			}
		}
		nl, err = synth.Elaborate(design, synth.Options{Top: top, Optimize: true})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("no input: pass Verilog files or -circuit (see -h)")
	}

	if check {
		if err := lintStage(report, irlint.Netlist(nl)); err != nil {
			return err
		}
	}
	if stats {
		fmt.Print(nl.ComputeStats())
	}

	if aigOut != "" {
		if err := writeAIG(nl, aigOut); err != nil {
			return err
		}
		fmt.Printf("wrote AIGER to %s\n", aigOut)
	}

	if check {
		g, lits, err := aig.FromNetlist(nl)
		if err != nil {
			return err
		}
		outs := make([]aig.Lit, 0, len(nl.CombOutputs()))
		for _, net := range nl.CombOutputs() {
			outs = append(outs, lits[net])
		}
		if err := lintStage(report, irlint.AIG(g, outs)); err != nil {
			return err
		}
	}

	alg := lutmap.PriorityCuts
	if useFlowmap {
		alg = lutmap.FlowMap
	}
	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: lutSize, Algorithm: alg})
	if err != nil {
		return err
	}
	if check {
		if err := lintStage(report, irlint.Graph(m.Graph)); err != nil {
			return err
		}
		if err := lintStage(report, irlint.Polys(m.Graph)); err != nil {
			return err
		}
	}
	if stats {
		ms := m.Graph.ComputeStats()
		fmt.Printf("mapping: %d LUTs, depth %d, mean arity %.2f (K=%d)\n",
			ms.LUTs, ms.Depth, ms.MeanIns, ms.K)
	}

	model, err := nn.Build(nl, m, nn.BuildOptions{Merge: merge, L: lutSize})
	if err != nil {
		return err
	}
	if check {
		if err := lintStage(report, irlint.Model(model)); err != nil {
			return err
		}
	}
	if stats {
		ns := model.Net.ComputeStats()
		fmt.Printf("network: %d layers, %d neurons, %d connections, mean sparsity %.5f\n",
			ns.Layers, ns.Neurons, ns.Connections, ns.MeanSparsity)
	}
	if check && stats {
		printLintSummary(report)
	}

	if out == "" {
		out = nl.Name + ".c2nn"
	}
	if dir := filepath.Dir(out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	n, err := model.SaveFile(out)
	if err != nil {
		return err
	}
	fmt.Printf("compiled %q (%d gates) at L=%d in %s -> %s (%.2f MB)\n",
		nl.Name, nl.GateCount(), lutSize, time.Since(start).Round(time.Millisecond),
		out, float64(n)/1e6)
	return nil
}
