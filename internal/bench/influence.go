package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"c2nn/internal/lutmap"
	"c2nn/internal/poly"
)

// InfluenceRow checks the §II-B hypothesis on one circuit: "the more
// complex and sensitive the DC is, the less sparse the polynomial will
// be". For every mapped LUT it relates average sensitivity (normalised
// total influence, O'Donnell 2014) to polynomial density (fraction of
// the 2^k possible coefficients that are non-zero).
type InfluenceRow struct {
	Circuit       string
	L             int
	LUTs          int
	MeanInfluence float64 // mean of TotalInfluence/k over LUTs
	MeanDensity   float64 // mean of terms/2^k over LUTs
	Correlation   float64 // Pearson r between the two, across LUTs
	MaxDegree     int
}

// RunInfluence maps each circuit at the given L and computes the
// sensitivity/density statistics.
func RunInfluence(names []string, l int, progress io.Writer) ([]InfluenceRow, error) {
	list, err := circuitList(names)
	if err != nil {
		return nil, err
	}
	var rows []InfluenceRow
	for _, c := range list {
		nl, err := c.Elaborate()
		if err != nil {
			return nil, err
		}
		m, err := lutmap.MapNetlist(nl, lutmap.Options{K: l})
		if err != nil {
			return nil, err
		}
		row := InfluenceRow{Circuit: c.Name, L: l, LUTs: len(m.Graph.LUTs)}
		var infl, dens []float64
		for i := range m.Graph.LUTs {
			tab := m.Graph.LUTs[i].Table
			if tab.NumVars == 0 {
				continue
			}
			p := poly.FromTable(tab)
			infl = append(infl, tab.TotalInfluence()/float64(tab.NumVars))
			dens = append(dens, float64(p.NumTerms())/float64(tab.Size()))
			if d := p.Degree(); d > row.MaxDegree {
				row.MaxDegree = d
			}
		}
		row.MeanInfluence = mean(infl)
		row.MeanDensity = mean(dens)
		row.Correlation = pearson(infl, dens)
		if progress != nil {
			fmt.Fprintf(progress, "[influence] %-18s L=%d luts=%-6d sens=%.3f density=%.3f r=%.3f\n",
				c.Name, l, row.LUTs, row.MeanInfluence, row.MeanDensity, row.Correlation)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].MeanInfluence < rows[j].MeanInfluence })
	return rows, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func pearson(xs, ys []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// FormatInfluence renders the §II-B hypothesis check.
func FormatInfluence(rows []InfluenceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %3s %7s %12s %12s %12s %8s\n",
		"Circuit", "L", "LUTs", "sensitivity", "density", "correlation", "maxdeg")
	b.WriteString(strings.Repeat("-", 78) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %3d %7d %12.4f %12.4f %12.4f %8d\n",
			r.Circuit, r.L, r.LUTs, r.MeanInfluence, r.MeanDensity, r.Correlation, r.MaxDegree)
	}
	b.WriteString("\nsensitivity = mean total influence per input; density = non-zero\n")
	b.WriteString("coefficients / 2^k. §II-B predicts they rise together (positive r).\n")
	return b.String()
}
