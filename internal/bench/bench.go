// Package bench is the experiment harness: it compiles the benchmark
// circuits through the full pipeline and regenerates every table and
// figure of the paper's evaluation (Table I, Fig. 4, Fig. 6), plus the
// ablations called out in DESIGN.md. cmd/bench drives it from the
// command line; bench_test.go wraps it in testing.B benchmarks.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/gatesim"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/obs"
	"c2nn/internal/simengine"
	"c2nn/internal/synth"
	"c2nn/internal/verilog"
)

// CompileResult carries everything produced by one pipeline run.
type CompileResult struct {
	Circuit  circuits.Circuit
	Netlist  *netlist.Netlist
	Mapping  *lutmap.Mapping
	Model    *nn.Model
	Program  *gatesim.Program
	L        int
	GenTime  time.Duration // NN generation (compilation) time
	SynthGen time.Duration // frontend share of GenTime (parse+elaborate)
}

// circuitList resolves benchmark circuit names; nil selects every
// benchmark circuit.
func circuitList(names []string) ([]circuits.Circuit, error) {
	if names == nil {
		return circuits.All(), nil
	}
	list := make([]circuits.Circuit, 0, len(names))
	for _, n := range names {
		c, err := circuits.ByName(n)
		if err != nil {
			return nil, err
		}
		list = append(list, c)
	}
	return list, nil
}

// Compile runs the full pipeline (Fig. 1) on one circuit at one LUT
// size. The reported generation time covers everything from Verilog
// source to the stored-model-ready network, matching the "Generation
// Time" column of Table I.
func Compile(c circuits.Circuit, l int, merge bool) (*CompileResult, error) {
	return CompileTraced(c, l, merge, nil)
}

// CompileTraced is Compile with an observability sink: every pipeline
// stage records a span (parse, elaborate, aig, cuts, tables, poly,
// network, …). A nil trace is Compile.
func CompileTraced(c circuits.Circuit, l int, merge bool, tr *obs.Trace) (*CompileResult, error) {
	start := time.Now()
	csp := tr.Begin("compile").SetStr("circuit", c.Name).SetInt("l", int64(l))
	psp := tr.Begin("parse")
	design, err := verilog.BuildDesign(c.Generate(), nil)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", c.Name, err)
	}
	psp.SetInt("modules", int64(len(design.Modules))).End()
	esp := tr.Begin("elaborate")
	nl, err := synth.Elaborate(design, synth.Options{Top: c.Top, Optimize: true, Trace: tr})
	if err != nil {
		return nil, fmt.Errorf("elaborate %s: %w", c.Name, err)
	}
	esp.SetInt("gates", int64(nl.NumGates())).
		SetInt("ffs", int64(nl.NumFFs())).
		SetInt("nets", int64(nl.NumNets())).End()
	synthDone := time.Now()
	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: l, Trace: tr})
	if err != nil {
		return nil, fmt.Errorf("map %s at L=%d: %w", c.Name, l, err)
	}
	model, err := nn.Build(nl, m, nn.BuildOptions{Merge: merge, L: l, BuildTrace: tr})
	if err != nil {
		return nil, fmt.Errorf("build NN for %s at L=%d: %w", c.Name, l, err)
	}
	csp.End()
	genTime := time.Since(start)

	prog, err := gatesim.Compile(nl)
	if err != nil {
		return nil, err
	}
	return &CompileResult{
		Circuit:  c,
		Netlist:  nl,
		Mapping:  m,
		Model:    model,
		Program:  prog,
		L:        l,
		GenTime:  genTime,
		SynthGen: synthDone.Sub(start),
	}, nil
}

// StimulusSet is a pre-generated random stimulus stream: one value
// sequence per input port per cycle per lane. Pre-generating keeps data
// creation out of the timed region, as the paper specifies (§IV).
type StimulusSet struct {
	Ports  []string
	Widths []int
	// Values[cycle][port][lane].
	Values [][][]uint64
	Cycles int
	Lanes  int
}

// NewStimulusSet draws random stimuli for every input port of a netlist.
func NewStimulusSet(nl *netlist.Netlist, cycles, lanes int, seed int64) *StimulusSet {
	rng := rand.New(rand.NewSource(seed))
	s := &StimulusSet{Cycles: cycles, Lanes: lanes}
	for i := range nl.Inputs {
		s.Ports = append(s.Ports, nl.Inputs[i].Name)
		s.Widths = append(s.Widths, nl.Inputs[i].Width())
	}
	s.Values = make([][][]uint64, cycles)
	for c := 0; c < cycles; c++ {
		s.Values[c] = make([][]uint64, len(s.Ports))
		for p := range s.Ports {
			vals := make([]uint64, lanes)
			for l := 0; l < lanes; l++ {
				v := rng.Uint64()
				if s.Widths[p] < 64 {
					v &= 1<<uint(s.Widths[p]) - 1
				}
				vals[l] = v
			}
			s.Values[c][p] = vals
		}
	}
	return s
}

// BaselineThroughput measures the scalar levelized simulator (the
// Verilator stand-in): one stimulus per pass, random inputs every
// cycle. It runs for at least minTime and returns gates·cycles/s.
func BaselineThroughput(prog *gatesim.Program, stim *StimulusSet, minTime time.Duration) float64 {
	sim := gatesim.NewSim(prog)
	gates := int64(prog.Netlist().GateCount())
	cycles := 0
	start := time.Now()
	for time.Since(start) < minTime {
		sc := stim.Values[cycles%stim.Cycles]
		for p, name := range stim.Ports {
			sim.Poke(name, sc[p][0])
		}
		sim.Step()
		cycles++
	}
	return simengine.Throughput(gates, cycles, 1, time.Since(start))
}

// EventThroughput measures the event-driven baseline variant.
func EventThroughput(prog *gatesim.Program, stim *StimulusSet, minTime time.Duration) float64 {
	sim := gatesim.NewEventSim(prog)
	gates := int64(prog.Netlist().GateCount())
	cycles := 0
	start := time.Now()
	for time.Since(start) < minTime {
		sc := stim.Values[cycles%stim.Cycles]
		for p, name := range stim.Ports {
			sim.Poke(name, sc[p][0])
		}
		sim.Step()
		cycles++
	}
	return simengine.Throughput(gates, cycles, 1, time.Since(start))
}

// Batch64Throughput measures the 64-lane bit-parallel baseline.
func Batch64Throughput(prog *gatesim.Program, stim *StimulusSet, minTime time.Duration) float64 {
	sim := gatesim.NewBatchSim(prog)
	gates := int64(prog.Netlist().GateCount())
	nl := prog.Netlist()
	cycles := 0
	start := time.Now()
	for time.Since(start) < minTime {
		sc := stim.Values[cycles%stim.Cycles]
		for p := range stim.Ports {
			port := nl.Inputs[p]
			lanes := make([]uint64, port.Width())
			for bit := 0; bit < port.Width(); bit++ {
				var w uint64
				for l := 0; l < 64 && l < stim.Lanes; l++ {
					if sc[p][l]>>uint(bit)&1 == 1 {
						w |= 1 << uint(l)
					}
				}
				lanes[bit] = w
			}
			sim.Poke(port.Name, lanes)
		}
		sim.Step()
		cycles++
	}
	return simengine.Throughput(gates, cycles, 64, time.Since(start))
}

// NNThroughput measures the neural-network engine at the given batch
// size, worker count and precision, including per-cycle input transfer
// (the paper's throughput includes stimulus transfer, §IV). Returns
// gates·cycles/s across all lanes.
func NNThroughput(res *CompileResult, stim *StimulusSet, batch, workers int,
	prec simengine.Precision, minTime time.Duration) (float64, error) {
	return NNThroughputTraced(res, stim, batch, workers, prec, minTime, nil)
}

// NNThroughputTraced is NNThroughput with an observability sink: the
// timed region records a "measure" span and the engine records its
// forward/kernel spans and dispatch counters. A nil trace is
// NNThroughput.
func NNThroughputTraced(res *CompileResult, stim *StimulusSet, batch, workers int,
	prec simengine.Precision, minTime time.Duration, tr *obs.Trace) (float64, error) {
	eng, err := simengine.New(res.Model, simengine.Options{
		Batch: batch, Workers: workers, Precision: prec, Trace: tr,
	})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	msp := tr.Begin("measure").
		SetStr("circuit", res.Circuit.Name).
		SetStr("backend", prec.String()).
		SetInt("batch", int64(batch))
	defer msp.End()
	gates := res.Model.GateCount
	cycles := 0
	start := time.Now()
	for time.Since(start) < minTime {
		sc := stim.Values[cycles%stim.Cycles]
		for p, name := range stim.Ports {
			if err := eng.SetInput(name, sc[p]); err != nil {
				return 0, err
			}
		}
		eng.Step()
		cycles++
	}
	return simengine.Throughput(gates, cycles, batch, time.Since(start)), nil
}

// SingleStimulusLatency measures one forward pass (batch 1) with the
// given worker count — the Fig. 6 measurement.
func SingleStimulusLatency(res *CompileResult, workers int, reps int) (time.Duration, error) {
	eng, err := simengine.New(res.Model, simengine.Options{Batch: 1, Workers: workers})
	if err != nil {
		return 0, err
	}
	// One warm-up pass.
	eng.Step()
	start := time.Now()
	for i := 0; i < reps; i++ {
		eng.Step()
	}
	return time.Since(start) / time.Duration(reps), nil
}
