package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"c2nn/internal/circuits"
	"c2nn/internal/lutmap"
	"c2nn/internal/nn"
	"c2nn/internal/simengine"
	"c2nn/internal/tensor"
)

// AblationRow is one design-choice comparison on a single circuit/L.
type AblationRow struct {
	Name  string
	Value string
}

// AblationConfig tunes the ablation run.
type AblationConfig struct {
	Circuit    string
	L          int
	Batch      int
	MinMeasure time.Duration
	Seed       int64
}

// DefaultAblationConfig uses UART at L=7.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{Circuit: "UART", L: 7, Batch: 512,
		MinMeasure: 200 * time.Millisecond, Seed: 3}
}

// RunAblations measures the design choices DESIGN.md calls out:
//
//   - layer merging (Fig. 5) on vs off: layer count and float32 and
//     bit-packed throughput;
//   - float32 vs int32 kernels (§V future work);
//   - sparse CSR vs dense matmul for the largest layer (§III-F);
//   - priority-cut vs FlowMap mapping: depth and LUT count;
//   - baseline engines: scalar vs event-driven vs 64-lane bit-parallel.
func RunAblations(cfg AblationConfig, progress io.Writer) ([]AblationRow, error) {
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}
	c, err := circuits.ByName(cfg.Circuit)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	add := func(name, format string, args ...any) {
		v := fmt.Sprintf(format, args...)
		rows = append(rows, AblationRow{Name: name, Value: v})
		logf("[ablation] %-42s %s", name, v)
	}

	// --- Merged vs unmerged (Fig. 5 / §III-D) --------------------------
	merged, err := Compile(c, cfg.L, true)
	if err != nil {
		return nil, err
	}
	stim := NewStimulusSet(merged.Netlist, 64, cfg.Batch, cfg.Seed)

	nlRaw, err := c.Elaborate()
	if err != nil {
		return nil, err
	}
	mapRaw, err := lutmap.MapNetlist(nlRaw, lutmap.Options{K: cfg.L})
	if err != nil {
		return nil, err
	}
	unmergedModel, err := nn.Build(nlRaw, mapRaw, nn.BuildOptions{Merge: false, L: cfg.L})
	if err != nil {
		return nil, err
	}
	unmerged := &CompileResult{Circuit: c, Netlist: nlRaw, Mapping: mapRaw,
		Model: unmergedModel, Program: merged.Program, L: cfg.L}

	mGCS, err := NNThroughput(merged, stim, cfg.Batch, 0, simengine.Float32, cfg.MinMeasure)
	if err != nil {
		return nil, err
	}
	uGCS, err := NNThroughput(unmerged, stim, cfg.Batch, 0, simengine.Float32, cfg.MinMeasure)
	if err != nil {
		return nil, err
	}
	add("layers merged vs unmerged", "%d vs %d",
		len(merged.Model.Net.Layers), len(unmergedModel.Net.Layers))
	add("throughput merged vs unmerged (g*c/s)", "%.3g vs %.3g (x%.2f)",
		mGCS, uGCS, mGCS/uGCS)
	bpGCS, err := NNThroughput(merged, stim, cfg.Batch, 0, simengine.BitPacked, cfg.MinMeasure)
	if err != nil {
		return nil, err
	}
	uBPGCS, err := NNThroughput(unmerged, stim, cfg.Batch, 0, simengine.BitPacked, cfg.MinMeasure)
	if err != nil {
		return nil, err
	}
	add("bitpacked merged vs unmerged (g*c/s)", "%.3g vs %.3g (x%.2f)",
		bpGCS, uBPGCS, bpGCS/uBPGCS)

	// --- Float32 vs Int32 vs BitPacked kernels (§V) --------------------
	iGCS, err := NNThroughput(merged, stim, cfg.Batch, 0, simengine.Int32, cfg.MinMeasure)
	if err != nil {
		return nil, err
	}
	add("throughput float32 vs int32 (g*c/s)", "%.3g vs %.3g (int is x%.2f)",
		mGCS, iGCS, iGCS/mGCS)
	add("throughput float32 vs bitpacked (g*c/s)", "%.3g vs %.3g (packed is x%.2f)",
		mGCS, bpGCS, bpGCS/mGCS)

	// --- Sparse vs dense matmul on the largest layer (§III-F) ----------
	var big *tensor.CSR
	for i := range merged.Model.Net.Layers {
		w := merged.Model.Net.Layers[i].W
		if big == nil || w.NNZ() > big.NNZ() {
			big = w
		}
	}
	dense := big.ToDense()
	x := make([]float32, big.Cols*cfg.Batch)
	for i := range x {
		if i%3 == 0 {
			x[i] = 1
		}
	}
	y := make([]float32, big.Rows*cfg.Batch)
	timeIt := func(f func()) time.Duration {
		f() // warm-up
		reps := 0
		start := time.Now()
		for time.Since(start) < cfg.MinMeasure/2 {
			f()
			reps++
		}
		return time.Since(start) / time.Duration(reps)
	}
	sp := timeIt(func() { big.MulBatch(x, cfg.Batch, y) })
	dn := timeIt(func() { dense.MulBatchNoSkip(x, cfg.Batch, y) })
	add("largest layer sparsity", "%.5f (%dx%d, nnz=%d)",
		big.Sparsity(), big.Rows, big.Cols, big.NNZ())
	add("SpMM vs dense matmul per pass", "%s vs %s (sparse x%.1f faster)",
		sp, dn, float64(dn)/float64(sp))

	// --- Priority cuts vs FlowMap --------------------------------------
	mFlow, err := lutmap.MapNetlist(nlRaw, lutmap.Options{K: cfg.L, Algorithm: lutmap.FlowMap})
	if err != nil {
		return nil, err
	}
	add("mapper depth priority-cuts vs FlowMap", "%d vs %d",
		merged.Mapping.Graph.Depth(), mFlow.Graph.Depth())
	add("mapper LUTs priority-cuts vs FlowMap", "%d vs %d",
		len(merged.Mapping.Graph.LUTs), len(mFlow.Graph.LUTs))

	// --- Wide-gate coalescing (§V known-function polynomials) ----------
	coalesced, err := lutmap.Coalesce(merged.Mapping.Graph, 16)
	if err != nil {
		return nil, err
	}
	cModel, err := nn.Build(merged.Netlist, &lutmap.Mapping{
		Graph: coalesced, PINets: merged.Mapping.PINets, OutputNets: merged.Mapping.OutputNets,
	}, nn.BuildOptions{Merge: true, L: cfg.L})
	if err != nil {
		return nil, err
	}
	add("coalesce depth before vs after", "%d vs %d",
		merged.Mapping.Graph.Depth(), coalesced.Depth())
	add("coalesce connections before vs after", "%d vs %d",
		merged.Model.Net.ComputeStats().Connections, cModel.Net.ComputeStats().Connections)

	// --- Baseline engine family ----------------------------------------
	scalar := BaselineThroughput(merged.Program, stim, cfg.MinMeasure)
	event := EventThroughput(merged.Program, stim, cfg.MinMeasure)
	b64 := Batch64Throughput(merged.Program, stim, cfg.MinMeasure)
	add("baseline scalar / event / 64-lane (g*c/s)", "%.3g / %.3g / %.3g",
		scalar, event, b64)
	add("NN speedup over scalar baseline", "x%.1f", mGCS/scalar)

	return rows, nil
}

// FormatAblations renders ablation rows.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-44s %s\n", r.Name, r.Value)
	}
	return b.String()
}

// FormRow is one circuit at one LUT size in both network forms. Index 0
// of each pair is the unmerged §III-C hidden/linear alternation (the
// facade default), index 1 the §III-D merged form.
type FormRow struct {
	Circuit     string
	L           int
	Layers      [2]int
	Connections [2]int
	// CycleUS is the bit-packed time per simulated cycle (inputs set
	// plus Step) at one worker.
	CycleUS [2]float64
}

// RunForms compiles each named circuit (nil = all benchmark circuits)
// at each LUT size in both network forms and times a bit-packed cycle
// of each at one worker, on one random stimulus stream per circuit.
func RunForms(names []string, ls []int, batch int, minMeasure time.Duration, progress io.Writer) ([]FormRow, error) {
	list, err := circuitList(names)
	if err != nil {
		return nil, err
	}
	var rows []FormRow
	for _, c := range list {
		for _, l := range ls {
			row := FormRow{Circuit: c.Name, L: l}
			var stim *StimulusSet
			for i, merge := range []bool{false, true} {
				res, err := Compile(c, l, merge)
				if err != nil {
					return nil, err
				}
				if stim == nil {
					stim = NewStimulusSet(res.Netlist, 64, batch, 1)
				}
				gcs, err := NNThroughput(res, stim, batch, 1, simengine.BitPacked, minMeasure)
				if err != nil {
					return nil, fmt.Errorf("%s L=%d merge=%v: %w", c.Name, l, merge, err)
				}
				row.Layers[i] = len(res.Model.Net.Layers)
				row.Connections[i] = res.Model.Net.ComputeStats().Connections
				row.CycleUS[i] = float64(res.Model.GateCount) * float64(batch) / gcs * 1e6
			}
			if progress != nil {
				fmt.Fprintf(progress, "[forms] %s L=%d unmerged %.1f us, merged %.1f us\n",
					c.Name, l, row.CycleUS[0], row.CycleUS[1])
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatForms renders form rows as a Markdown table.
func FormatForms(rows []FormRow) string {
	var b strings.Builder
	b.WriteString("| Circuit | L | Layers unmerged / merged | Connections unmerged / merged | Cycle µs unmerged / merged | Merged ÷ unmerged time |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %d / %d | %d / %d | %.1f / %.1f | ×%.2f |\n",
			r.Circuit, r.L, r.Layers[0], r.Layers[1], r.Connections[0], r.Connections[1],
			r.CycleUS[0], r.CycleUS[1], r.CycleUS[1]/r.CycleUS[0])
	}
	return b.String()
}
