package c2nn

// Acceptance tests of the fault subsystem: grading the shipped smoke
// testbenches must report the exact same detected-fault sets on all
// three execution backends and on both network forms — fault detection
// is a bit-level diff against the golden lane, so any backend or form
// divergence shows up as a detection difference here.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"c2nn/internal/circuits"
	"c2nn/internal/fault"
	"c2nn/internal/lutmap"
	"c2nn/internal/netlist"
	"c2nn/internal/nn"
	"c2nn/internal/testbench"
)

func TestFaultDetectionBackendIdentical(t *testing.T) {
	tbs := []string{"uart_smoke.tb", "spi_smoke.tb", "dma_smoke.tb"}
	limit := 200
	if testing.Short() {
		tbs = tbs[:1]
		limit = 60
	}
	for _, tb := range tbs {
		t.Run(tb, func(t *testing.T) {
			script, nl, m := smokeFaultSetup(t, tb)
			model, err := nn.Build(nl, m, nn.BuildOptions{Merge: true, L: 4})
			if err != nil {
				t.Fatal(err)
			}
			u := fault.Enumerate(m.Graph, len(model.Feedback))
			// Bound the runtime: grade a strided sample of `limit`
			// simulated classes. A stride (rather than a prefix) spreads
			// the sample across the whole circuit so it includes faults
			// the smoke stimuli actually reach; the differential property
			// holds per class, so a sample is as discriminating per fault
			// as the full set.
			sims := u.SimulatedClasses()
			if len(sims) > limit {
				stride := (len(sims) + limit - 1) / limit
				for pos, ci := range sims {
					if pos%stride != 0 {
						u.Classes[ci].Status = fault.Dominated
					}
				}
			}

			// Every backend is graded with activity-driven skipping off
			// and on: overlay passes always run full and overlay churn
			// invalidates the dirtiness state, so the detected-fault set
			// must be identical in all six configurations.
			var ref *fault.Report
			for _, prec := range backendPrecisions {
				for _, activity := range []bool{false, true} {
					rep, err := fault.Grade(model, m.Graph, u, script, fault.Config{
						Precision:    prec,
						Batch:        32,
						RandomCycles: 16,
						Seed:         5,
						Activity:     activity,
					})
					if err != nil {
						t.Fatalf("%v activity=%v: %v", prec, activity, err)
					}
					if rep.Detected+rep.Undetected != rep.Simulated {
						t.Errorf("%v activity=%v: detected %d + undetected %d != simulated %d",
							prec, activity, rep.Detected, rep.Undetected, rep.Simulated)
					}
					if rep.Detected == 0 {
						t.Errorf("%v activity=%v: smoke testbench detected nothing", prec, activity)
					}
					if ref == nil {
						ref = rep
						continue
					}
					if !reflect.DeepEqual(ref.DetectedFaults, rep.DetectedFaults) {
						t.Errorf("%v activity=%v detected set differs from %v:\n%v\n%v",
							prec, activity, backendPrecisions[0], rep.DetectedFaults, ref.DetectedFaults)
					}
					if !reflect.DeepEqual(ref.UndetectedFaults, rep.UndetectedFaults) {
						t.Errorf("%v activity=%v undetected set differs from %v", prec, activity, backendPrecisions[0])
					}
				}
			}
		})
	}
}

// smokeFaultSetup parses a shipped smoke testbench and elaborates and
// maps (L=4) the circuit its file name selects.
func smokeFaultSetup(t *testing.T, tb string) (*testbench.Script, *netlist.Netlist, *lutmap.Mapping) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testbenches", tb))
	if err != nil {
		t.Fatal(err)
	}
	script, err := testbench.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	name := strings.ToUpper(strings.SplitN(tb, "_", 2)[0])
	c, err := circuits.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	m, err := lutmap.MapNetlist(nl, lutmap.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	return script, nl, m
}

// TestFaultDetectionFormIdentical grades the whole collapsed fault
// universe of each smoke circuit on the merged and the unmerged network
// built from one LUT mapping. Faults are injected at LUT term neurons,
// which both forms keep, so the detected set depends only on the
// mapping and the stimuli, never on the form.
func TestFaultDetectionFormIdentical(t *testing.T) {
	tbs := []string{"uart_smoke.tb", "spi_smoke.tb", "dma_smoke.tb"}
	if testing.Short() {
		tbs = tbs[:1]
	}
	for _, tb := range tbs {
		t.Run(tb, func(t *testing.T) {
			script, nl, m := smokeFaultSetup(t, tb)
			var ref *fault.Report
			for _, f := range networkForms {
				model, err := nn.Build(nl, m, nn.BuildOptions{Merge: f.merge, L: 4})
				if err != nil {
					t.Fatal(err)
				}
				u := fault.Enumerate(m.Graph, len(model.Feedback))
				rep, err := fault.Grade(model, m.Graph, u, script, fault.Config{
					Precision:    BitPacked,
					RandomCycles: 16,
					Seed:         5,
				})
				if err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
				t.Logf("%s: detected %d of %d simulated classes", f.name, rep.Detected, rep.Simulated)
				if rep.Detected == 0 {
					t.Errorf("%s: smoke testbench detected nothing", f.name)
				}
				if ref == nil {
					ref = rep
					continue
				}
				if rep.Simulated != ref.Simulated {
					t.Errorf("%s simulated %d classes, %s %d", f.name, rep.Simulated, networkForms[0].name, ref.Simulated)
				}
				if !reflect.DeepEqual(ref.DetectedFaults, rep.DetectedFaults) {
					t.Errorf("%s detected %d faults, %s %d: sets differ",
						f.name, rep.Detected, networkForms[0].name, ref.Detected)
				}
				if !reflect.DeepEqual(ref.UndetectedFaults, rep.UndetectedFaults) {
					t.Errorf("%s undetected set differs from %s", f.name, networkForms[0].name)
				}
			}
		})
	}
}
