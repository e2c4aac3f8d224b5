package c2nn

// The shipped testbench scripts under testbenches/ must keep passing
// against their circuits, in both network forms.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c2nn/internal/testbench"
)

func TestShippedTestbenches(t *testing.T) {
	cases := map[string]string{
		"uart_smoke.tb": "UART",
		"spi_smoke.tb":  "SPI",
		"dma_smoke.tb":  "DMA",
	}
	entries, err := os.ReadDir("testbenches")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".tb") {
			continue
		}
		circuit, ok := cases[e.Name()]
		if !ok {
			t.Errorf("testbench %s has no circuit mapping in this test", e.Name())
			continue
		}
		seen++
		t.Run(e.Name(), func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testbenches", e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			script, err := testbench.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			eachForm(t, compileForms(t, circuit, 4), func(t *testing.T, model *Model) {
				eng, err := NewEngine(model, EngineOptions{Batch: 2})
				if err != nil {
					t.Fatal(err)
				}
				res, err := script.Run(eng)
				if err != nil {
					t.Fatal(err)
				}
				if res.Checks == 0 {
					t.Error("testbench made no checks")
				}
			})
		})
	}
	if seen != len(cases) {
		t.Errorf("found %d testbenches, want %d", seen, len(cases))
	}
}
