package nn

import (
	"fmt"
	"math/bits"
	"sort"

	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/obs"
	"c2nn/internal/poly"
	"c2nn/internal/tensor"
)

// BuildOptions configures network construction.
type BuildOptions struct {
	// Merge enables the depth-halving layer fusion of §III-D (Fig. 5).
	// Disabled it keeps the explicit hidden/linear alternation, which
	// has fewer connections and is the engine's default form.
	Merge bool
	// L records the LUT size used during mapping (Table I column).
	L int
	// BuildTrace, when non-nil, records the "nn" span with its "poly"
	// (polynomial generation) and "network" (layer construction) child
	// spans. Named BuildTrace because Trace already names the LUT
	// provenance this package attaches to models.
	BuildTrace *obs.Trace
}

// Build converts a mapped circuit into its neural-network model. The
// netlist supplies port names, flip-flop wiring and the gate count used
// by the throughput metric.
func Build(nl *netlist.Netlist, m *lutmap.Mapping, opts BuildOptions) (*Model, error) {
	bsp := opts.BuildTrace.Begin("nn")
	defer bsp.End()
	g := m.Graph
	psp := opts.BuildTrace.Begin("poly")
	polys := make([]poly.Poly, len(g.LUTs))
	for i := range g.LUTs {
		polys[i] = poly.FromTable(g.LUTs[i].Table)
	}
	if opts.BuildTrace != nil {
		var terms int64
		for i := range polys {
			terms += int64(len(polys[i].Terms))
		}
		psp.SetInt("luts", int64(len(polys))).SetInt("terms", terms)
	}
	psp.End()
	nsp := opts.BuildTrace.Begin("network")
	defer nsp.End()
	levels := g.Level()
	var depth int32
	for _, l := range levels {
		if l > depth {
			depth = l
		}
	}
	byLevel := make([][]int, depth+1)
	for u, l := range levels {
		byLevel[l] = append(byLevel[l], u)
	}

	var net *Network
	var tr *Trace
	var err error
	if opts.Merge {
		net, tr, err = buildMerged(g, polys, byLevel)
	} else {
		net, tr, err = buildUnmerged(g, polys, byLevel)
	}
	if err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}

	model := &Model{
		Net:         net,
		CircuitName: nl.Name,
		L:           opts.L,
		GateCount:   int64(nl.GateCount()),
		Merged:      opts.Merge,
		Trace:       tr,
	}
	if err := bindPorts(model, nl, m); err != nil {
		return nil, err
	}
	if opts.BuildTrace != nil {
		var nnz int64
		for li := range net.Layers {
			nnz += int64(len(net.Layers[li].W.Val))
		}
		nsp.SetInt("layers", int64(len(net.Layers))).
			SetInt("neurons", int64(net.TotalUnits)).
			SetInt("nnz", nnz)
	}
	return model, nil
}

// linform is the exact linear form of a signal over existing units:
// value = cst + Σ coeff·unit.
type linform struct {
	cst   int32
	units []int32
	coefs []int32
}

// rowAccum builds one sparse row by accumulating integer coefficients.
type rowAccum struct {
	coef map[int32]int32
}

func (r *rowAccum) add(unit, c int32) {
	if r.coef == nil {
		r.coef = make(map[int32]int32)
	}
	r.coef[unit] += c
	if r.coef[unit] == 0 {
		delete(r.coef, unit)
	}
}

func (r *rowAccum) emit(row int32, entries *[]tensor.Triple) {
	// Ascending unit order: FromTriples preserves insertion order within
	// a row, so emitting in map order would make the CSR layout — and
	// every downstream plan and report — vary from run to run.
	units := make([]int32, 0, len(r.coef))
	for unit := range r.coef {
		units = append(units, unit)
	}
	sort.Slice(units, func(i, j int) bool { return units[i] < units[j] })
	for _, unit := range units {
		*entries = append(*entries, tensor.Triple{Row: row, Col: unit, Val: float32(r.coef[unit])})
	}
}

// buildMerged constructs the depth-halved network: one threshold layer
// per computation-graph level (rows are polynomial terms, with each
// input's exact linear form substituted in — the weight product of
// Fig. 5) plus one final exact linear output layer.
func buildMerged(g *lutmap.Graph, polys []poly.Poly, byLevel [][]int) (*Network, *Trace, error) {
	net := &Network{NumPIs: g.NumPIs}
	units := int32(1 + g.NumPIs)
	lf := make([]linform, len(g.LUTs))
	tr := newTrace(g, byLevel)

	for level := 1; level < len(byLevel); level++ {
		luts := byLevel[level]
		if len(luts) == 0 {
			continue
		}
		segStart := units
		var entries []tensor.Triple
		var biases []float32
		row := int32(0)
		for _, u := range luts {
			p := polys[u]
			ins := g.LUTs[u].Ins
			terms := p.NonConstTerms()
			termUnits := make([]int32, len(terms))
			for ti, term := range terms {
				var acc rowAccum
				var constSum int32
				size := int32(bits.OnesCount32(term.Mask))
				for v := 0; v < p.NumVars; v++ {
					if term.Mask>>uint(v)&1 == 0 {
						continue
					}
					ref := ins[v]
					if ref.IsPI() {
						acc.add(PIUnit(ref.PI()), 1)
						continue
					}
					f := &lf[ref.LUT()]
					constSum += f.cst
					for k, unit := range f.units {
						acc.add(unit, f.coefs[k])
					}
				}
				acc.emit(row, &entries)
				biases = append(biases, float32(size-1-constSum))
				termUnits[ti] = segStart + row
				row++
			}
			f := linform{cst: p.ConstTerm()}
			for ti, term := range terms {
				f.units = append(f.units, termUnits[ti])
				f.coefs = append(f.coefs, term.Coeff)
			}
			lf[u] = f
			lt := &tr.LUTs[u]
			lt.TermUnits = termUnits
			lt.TermMasks = termMasks(terms)
			lt.Cst = f.cst
			lt.VUnits = f.units
			lt.VCoefs = f.coefs
		}
		w, err := tensor.FromTriples(int(row), int(segStart), entries)
		if err != nil {
			return nil, nil, err
		}
		net.Layers = append(net.Layers, Layer{W: w, Bias: biases, Threshold: true})
		net.SegStart = append(net.SegStart, segStart)
		tr.LayerOfLevel[level] = int32(len(net.Layers) - 1)
		units += row
	}

	// Final exact linear layer: one output neuron per combinational
	// output; no bias or threshold (§III-B3).
	segStart := units
	var entries []tensor.Triple
	for j, ref := range g.Outputs {
		row := int32(j)
		if ref.IsPI() {
			entries = append(entries, tensor.Triple{Row: row, Col: PIUnit(ref.PI()), Val: 1})
			continue
		}
		f := &lf[ref.LUT()]
		if f.cst != 0 {
			entries = append(entries, tensor.Triple{Row: row, Col: ConstUnit, Val: float32(f.cst)})
		}
		for k, unit := range f.units {
			entries = append(entries, tensor.Triple{Row: row, Col: unit, Val: float32(f.coefs[k])})
		}
	}
	w, err := tensor.FromTriples(len(g.Outputs), int(segStart), entries)
	if err != nil {
		return nil, nil, err
	}
	net.Layers = append(net.Layers, Layer{W: w, Threshold: false})
	net.SegStart = append(net.SegStart, segStart)
	units += int32(len(g.Outputs))
	net.TotalUnits = int(units)
	return net, tr, nil
}

// buildUnmerged constructs the explicit Fig. 2 alternation: a threshold
// hidden layer (terms, unit weights, bias |S|−1) followed by an exact
// linear layer materialising each LUT's signal, per level, plus the
// output layer. Twice the depth of the merged network (§III-D).
func buildUnmerged(g *lutmap.Graph, polys []poly.Poly, byLevel [][]int) (*Network, *Trace, error) {
	net := &Network{NumPIs: g.NumPIs}
	units := int32(1 + g.NumPIs)
	signalUnit := make([]int32, len(g.LUTs))
	tr := newTrace(g, byLevel)

	refUnit := func(r lutmap.NodeRef) int32 {
		if r.IsPI() {
			return PIUnit(r.PI())
		}
		return signalUnit[r.LUT()]
	}

	for level := 1; level < len(byLevel); level++ {
		luts := byLevel[level]
		if len(luts) == 0 {
			continue
		}
		// Hidden threshold layer: term neurons.
		hidStart := units
		var hidEntries []tensor.Triple
		var biases []float32
		hidRow := int32(0)
		termUnits := make(map[int][]int32, len(luts))
		for _, u := range luts {
			p := polys[u]
			ins := g.LUTs[u].Ins
			terms := p.NonConstTerms()
			tu := make([]int32, len(terms))
			for ti, term := range terms {
				size := int32(bits.OnesCount32(term.Mask))
				for v := 0; v < p.NumVars; v++ {
					if term.Mask>>uint(v)&1 == 1 {
						hidEntries = append(hidEntries, tensor.Triple{
							Row: hidRow, Col: refUnit(ins[v]), Val: 1})
					}
				}
				biases = append(biases, float32(size-1))
				tu[ti] = hidStart + hidRow
				hidRow++
			}
			termUnits[u] = tu
			tr.LUTs[u].TermUnits = tu
			tr.LUTs[u].TermMasks = termMasks(terms)
		}
		hw, err := tensor.FromTriples(int(hidRow), int(hidStart), hidEntries)
		if err != nil {
			return nil, nil, err
		}
		net.Layers = append(net.Layers, Layer{W: hw, Bias: biases, Threshold: true})
		net.SegStart = append(net.SegStart, hidStart)
		tr.LayerOfLevel[level] = int32(len(net.Layers) - 1)
		units += hidRow

		// Exact linear layer: one neuron per LUT signal.
		linStart := units
		var linEntries []tensor.Triple
		for li, u := range luts {
			p := polys[u]
			row := int32(li)
			if c := p.ConstTerm(); c != 0 {
				linEntries = append(linEntries, tensor.Triple{Row: row, Col: ConstUnit, Val: float32(c)})
			}
			for ti, term := range p.NonConstTerms() {
				linEntries = append(linEntries, tensor.Triple{
					Row: row, Col: termUnits[u][ti], Val: float32(term.Coeff)})
			}
			signalUnit[u] = linStart + row
			lt := &tr.LUTs[u]
			lt.Cst = 0
			lt.VUnits = []int32{signalUnit[u]}
			lt.VCoefs = []int32{1}
		}
		lw, err := tensor.FromTriples(len(luts), int(linStart), linEntries)
		if err != nil {
			return nil, nil, err
		}
		net.Layers = append(net.Layers, Layer{W: lw, Threshold: false})
		net.SegStart = append(net.SegStart, linStart)
		units += int32(len(luts))
	}

	// Output layer: identity rows onto the output signals.
	segStart := units
	var entries []tensor.Triple
	for j, ref := range g.Outputs {
		entries = append(entries, tensor.Triple{Row: int32(j), Col: refUnit(ref), Val: 1})
	}
	w, err := tensor.FromTriples(len(g.Outputs), int(segStart), entries)
	if err != nil {
		return nil, nil, err
	}
	net.Layers = append(net.Layers, Layer{W: w, Threshold: false})
	net.SegStart = append(net.SegStart, segStart)
	units += int32(len(g.Outputs))
	net.TotalUnits = int(units)
	return net, tr, nil
}

// newTrace allocates the provenance record with per-LUT levels filled
// in and every level layer unknown.
func newTrace(g *lutmap.Graph, byLevel [][]int) *Trace {
	tr := &Trace{
		LayerOfLevel: make([]int32, len(byLevel)),
		LUTs:         make([]LUTTrace, len(g.LUTs)),
	}
	for l := range tr.LayerOfLevel {
		tr.LayerOfLevel[l] = -1
	}
	for level, luts := range byLevel {
		for _, u := range luts {
			tr.LUTs[u].Level = int32(level)
		}
	}
	return tr
}

// termMasks extracts the variable-set masks of the non-constant terms.
func termMasks(terms []poly.Term) []uint32 {
	masks := make([]uint32, len(terms))
	for i, t := range terms {
		masks[i] = t.Mask
	}
	return masks
}

// bindPorts fills the model's port maps and flip-flop feedback from the
// netlist geometry: mapping PIs are primary inputs then FF Q pins;
// mapping outputs are primary outputs then FF D pins.
func bindPorts(model *Model, nl *netlist.Netlist, m *lutmap.Mapping) error {
	piIndex := make(map[netlist.NetID]int, len(m.PINets))
	for i, net := range m.PINets {
		piIndex[net] = i
	}
	for _, port := range nl.Inputs {
		pm := PortMap{Name: port.Name, Units: make([]int32, len(port.Bits))}
		for i, bit := range port.Bits {
			pi, ok := piIndex[bit]
			if !ok {
				return fmt.Errorf("nn: input %s bit %d is not a mapping PI", port.Name, i)
			}
			pm.Units[i] = PIUnit(pi)
		}
		model.Inputs = append(model.Inputs, pm)
	}

	// Output unit of combinational output j: row j of the final layer.
	lastSeg := model.Net.SegStart[len(model.Net.SegStart)-1]
	outUnit := func(j int) int32 { return lastSeg + int32(j) }

	outIndex := make(map[netlist.NetID]int, len(m.OutputNets))
	for j, net := range m.OutputNets {
		if _, dup := outIndex[net]; !dup {
			outIndex[net] = j
		}
	}
	for _, port := range nl.Outputs {
		pm := PortMap{Name: port.Name, Units: make([]int32, len(port.Bits))}
		for i, bit := range port.Bits {
			j, ok := outIndex[bit]
			if !ok {
				return fmt.Errorf("nn: output %s bit %d is not a mapping output", port.Name, i)
			}
			pm.Units[i] = outUnit(j)
		}
		model.Outputs = append(model.Outputs, pm)
	}

	// Flip-flop feedback: D outputs follow the primary output bits in
	// CombOutputs order; Q inputs follow the primary input bits.
	numPrimaryOut := nl.OutputBits()
	numPrimaryIn := nl.InputBits()
	for i, ff := range nl.FFs {
		j := numPrimaryOut + i
		pi := numPrimaryIn + i
		if m.OutputNets[j] != ff.D || m.PINets[pi] != ff.Q {
			return fmt.Errorf("nn: flip-flop %d wiring mismatch", i)
		}
		model.Feedback = append(model.Feedback, Feedback{
			FromUnit: outUnit(j),
			ToPI:     PIUnit(pi),
			Init:     ff.Init,
		})
	}
	return nil
}
