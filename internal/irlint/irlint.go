// Package irlint is the cross-stage IR verifier: a static-analysis
// pass over every intermediate representation of the compilation
// pipeline — Verilog AST, bit-blasted netlist, and-inverter graph, LUT
// computation graph, multi-linear polynomials, the threshold network
// and its lowered execution plan — with collect-all-violations
// semantics.
//
// The rule implementations live next to the IRs they inspect (each IR
// package has a lint.go declaring its rules against the registry in
// internal/irlint/diag); this package stitches them into per-stage
// reports and a whole-pipeline Check that compiles a netlist to a
// model, verifying every stage boundary on the way — the static
// counterpart of the dynamic simengine.Verify equivalence check
// (paper §IV-A).
package irlint

import (
	"fmt"

	"c2nn/internal/aig"
	"c2nn/internal/equiv"
	"c2nn/internal/exec/analyze"
	"c2nn/internal/exec/plan"
	"c2nn/internal/fault"
	"c2nn/internal/irlint/diag"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/poly"
	"c2nn/internal/synth"
	"c2nn/internal/verilog"
)

// PolyCheckMaxVars bounds the exhaustive polynomial re-evaluation: for
// every LUT with at most this many inputs, the verifier recomputes the
// multi-linear polynomial and evaluates it on all 2^k assignments
// against the truth table. 8 keeps the check at ≤ 256 evaluations per
// LUT while covering every LUT the default L = 7 mapping produces.
const PolyCheckMaxVars = 8

// Design lints the parsed Verilog AST.
func Design(d *verilog.Design) *diag.Report {
	r := &diag.Report{}
	r.Add(d.Lint()...)
	return r
}

// Netlist lints the gate-level IR.
func Netlist(nl *netlist.Netlist) *diag.Report {
	r := &diag.Report{}
	r.Add(nl.Lint()...)
	return r
}

// AIG lints an and-inverter graph against its output literals.
func AIG(g *aig.AIG, outputs []aig.Lit) *diag.Report {
	r := &diag.Report{}
	r.Add(g.Lint(outputs)...)
	return r
}

// Graph lints the LUT computation graph.
func Graph(g *lutmap.Graph) *diag.Report {
	r := &diag.Report{}
	r.Add(g.Lint()...)
	return r
}

// Polys re-derives the multi-linear polynomial of every LUT with at
// most PolyCheckMaxVars inputs, lints its structure and re-evaluates it
// exhaustively against the truth table (rule PL004) — a per-node static
// proof of the polynomial conversion.
func Polys(g *lutmap.Graph) *diag.Report {
	r := &diag.Report{}
	for i := range g.LUTs {
		t := g.LUTs[i].Table
		if t.NumVars > PolyCheckMaxVars {
			continue
		}
		loc := fmt.Sprintf("lut %d", i)
		p := poly.FromTable(t)
		r.Add(p.Lint(loc)...)
		r.Add(poly.LintAgainstTable(p, t, loc)...)
	}
	return r
}

// Model lints the compiled neural-network model.
func Model(m *nn.Model) *diag.Report {
	r := &diag.Report{}
	r.Add(m.Lint()...)
	return r
}

// Plan lowers the model to an execution plan and lints it — the final
// stage boundary, verifying kernel selection, threshold fusion and the
// activation-arena liveness analysis against the model.
func Plan(m *nn.Model) (*diag.Report, error) {
	p, err := plan.Compile(m)
	if err != nil {
		return nil, fmt.Errorf("irlint: lowering to plan: %w", err)
	}
	r := &diag.Report{}
	r.Add(p.Lint()...)
	return r, nil
}

// Analyze lowers the model and runs the static plan analysis (rules
// PA001–PA008): cone-of-influence clustering, the static cost model,
// the arena aliasing/liveness proof and degenerate-row classification —
// the stage after the structural plan lint.
func Analyze(m *nn.Model) (*diag.Report, error) {
	p, err := plan.Compile(m)
	if err != nil {
		return nil, fmt.Errorf("irlint: lowering to plan: %w", err)
	}
	res, err := analyze.Run(p, analyze.Options{})
	if err != nil {
		return nil, fmt.Errorf("irlint: plan analysis: %w", err)
	}
	r := &diag.Report{}
	r.Add(res.Diags...)
	return r, nil
}

// Faults enumerates and collapses the stuck-at/SEU fault universe of
// the mapped graph, compiles the full overlay (every simulated class on
// its own lane) against a reuse-free plan, and lints both — the static
// verification of the fault-injection subsystem (rules FT001–FT004).
func Faults(model *nn.Model, g *lutmap.Graph) (*diag.Report, error) {
	r := &diag.Report{}
	u := fault.Enumerate(g, len(model.Feedback))
	r.Add(u.Lint(g)...)

	fp, err := plan.CompileOpts(model, plan.Options{DisableArenaReuse: true})
	if err != nil {
		return nil, fmt.Errorf("irlint: lowering fault plan: %w", err)
	}
	ov, err := fault.NewOverlay(model, g, -1)
	if err != nil {
		return nil, fmt.Errorf("irlint: compiling fault overlay: %w", err)
	}
	lane := 1
	for _, ci := range u.SimulatedClasses() {
		if err := ov.AddFault(u.Classes[ci].Rep, lane); err != nil {
			return nil, fmt.Errorf("irlint: compiling fault overlay: %w", err)
		}
		lane++
	}
	r.Add(ov.Lint(fp, lane)...)
	return r, nil
}

// Equiv runs the SAT equivalence stage (rules EQ001–EQ008): pairing
// invariants first, then the three stage miters and the per-LUT
// table→polynomial→threshold chain, converting the certificate into
// diagnostics. Broken pairing skips the proof — the miters cannot share
// primary inputs without it.
func Equiv(nl *netlist.Netlist, g *aig.AIG, outs []aig.Lit, m *lutmap.Mapping, model *nn.Model) (*diag.Report, error) {
	r := &diag.Report{}
	if ds := equiv.LintPairing(nl, g, outs, m); len(ds) > 0 {
		r.Add(ds...)
		return r, nil
	}
	res, err := equiv.Prove(nl, g, outs, m, model, equiv.Options{})
	if err != nil {
		return nil, fmt.Errorf("irlint: equivalence proof: %w", err)
	}
	r.Add(res.Lint()...)
	return r, nil
}

// Options configures the pipeline check. The zero value means L = 7,
// priority-cuts mapping, unmerged network.
type Options struct {
	// L is the LUT size hyperparameter.
	L int
	// FlowMap selects the depth-optimal mapper.
	FlowMap bool
	// CoalesceWide, when > 0, runs wide AND/OR coalescing after
	// mapping, as in the main compile path.
	CoalesceWide int
	// Merge applies the depth-halving layer merge of §III-D.
	Merge bool
	// NoEquiv disables the SAT equivalence stage (rules EQ001–EQ008),
	// leaving only the per-stage structural lints.
	NoEquiv bool
}

func (o *Options) fill() {
	if o.L == 0 {
		o.L = 7
	}
}

// Check compiles the netlist stage by stage, linting at every stage
// boundary, and returns the compiled model together with the combined
// report. When a stage reports Error-severity diagnostics, compilation
// stops at that boundary and the model is nil. A non-nil error means a
// stage failed outright (distinct from reporting diagnostics).
func Check(nl *netlist.Netlist, opts Options) (*nn.Model, *diag.Report, error) {
	opts.fill()
	report := Netlist(nl)
	if report.HasErrors() {
		report.Sort()
		return nil, report, nil
	}

	g, lits, err := aig.FromNetlist(nl)
	if err != nil {
		return nil, report, fmt.Errorf("irlint: lowering to AIG: %w", err)
	}
	outs := make([]aig.Lit, 0, len(nl.CombOutputs()))
	for _, net := range nl.CombOutputs() {
		outs = append(outs, lits[net])
	}
	report.Add(AIG(g, outs).Diags...)
	if report.HasErrors() {
		report.Sort()
		return nil, report, nil
	}

	alg := lutmap.PriorityCuts
	if opts.FlowMap {
		alg = lutmap.FlowMap
	}
	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: opts.L, Algorithm: alg})
	if err != nil {
		return nil, report, fmt.Errorf("irlint: mapping: %w", err)
	}
	if opts.CoalesceWide > 0 {
		cg, err := lutmap.Coalesce(m.Graph, opts.CoalesceWide)
		if err != nil {
			return nil, report, fmt.Errorf("irlint: coalescing: %w", err)
		}
		m.Graph = cg
	}
	report.Add(Graph(m.Graph).Diags...)
	report.Add(Polys(m.Graph).Diags...)
	if report.HasErrors() {
		report.Sort()
		return nil, report, nil
	}

	model, err := nn.Build(nl, m, nn.BuildOptions{Merge: opts.Merge, L: opts.L})
	if err != nil {
		return nil, report, fmt.Errorf("irlint: building network: %w", err)
	}
	report.Add(Model(model).Diags...)
	if report.HasErrors() {
		report.Sort()
		return nil, report, nil
	}

	planReport, err := Plan(model)
	if err != nil {
		return nil, report, err
	}
	report.Add(planReport.Diags...)
	if report.HasErrors() {
		report.Sort()
		return nil, report, nil
	}

	analyzeReport, err := Analyze(model)
	if err != nil {
		return nil, report, err
	}
	report.Add(analyzeReport.Diags...)
	if report.HasErrors() {
		report.Sort()
		return nil, report, nil
	}

	faultReport, err := Faults(model, m.Graph)
	if err != nil {
		return nil, report, err
	}
	report.Add(faultReport.Diags...)
	if report.HasErrors() {
		report.Sort()
		return nil, report, nil
	}

	if !opts.NoEquiv {
		eqReport, err := Equiv(nl, g, outs, m, model)
		if err != nil {
			return nil, report, err
		}
		report.Add(eqReport.Diags...)
	}
	report.Sort()
	if report.HasErrors() {
		return nil, report, nil
	}
	return model, report, nil
}

// CheckSources parses and lints the Verilog AST, elaborates the design
// and runs the pipeline Check — the full static verification of a
// source-level compile. order fixes the parse order (nil for map
// order); top selects the top module ("" infers it).
func CheckSources(sources map[string]string, order []string, top string, opts Options) (*nn.Model, *diag.Report, error) {
	design, err := verilog.BuildDesign(sources, order)
	if err != nil {
		return nil, nil, err
	}
	report := Design(design)
	if report.HasErrors() {
		report.Sort()
		return nil, report, nil
	}
	// Elaboration validates the netlist itself on exit; elaboration
	// failures are hard errors rather than diagnostics.
	nl, err := elaborate(design, top)
	if err != nil {
		return nil, report, err
	}
	model, rest, cerr := Check(nl, opts)
	report.Add(rest.Diags...)
	report.Sort()
	return model, report, cerr
}

func elaborate(design *verilog.Design, top string) (*netlist.Netlist, error) {
	return synth.Elaborate(design, synth.Options{Top: top, Optimize: true})
}
