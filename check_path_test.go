package c2nn

// With Options.Check set, the facade returns the model irlint.Check
// builds from Options.lintOptions instead of building its own. Both
// paths must produce the same network in both forms, or turning the
// verifier on would change what is simulated.

import (
	"bytes"
	"testing"
)

func TestCheckPathParity(t *testing.T) {
	for _, name := range []string{"UART", "SPI"} {
		for _, f := range networkForms {
			t.Run(name+"/"+f.name, func(t *testing.T) {
				var saved [2]bytes.Buffer
				for i, check := range []bool{false, true} {
					m, err := CompileBenchmark(name, Options{L: 4, Merge: f.merge, Check: check})
					if err != nil {
						t.Fatalf("check=%v: %v", check, err)
					}
					if m.Merged != f.merge {
						t.Fatalf("check=%v: model merged=%v, want %v", check, m.Merged, f.merge)
					}
					if _, err := m.Save(&saved[i]); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(saved[0].Bytes(), saved[1].Bytes()) {
					t.Errorf("checked model (%d bytes) differs from unchecked model (%d bytes)",
						saved[1].Len(), saved[0].Len())
				}
			})
		}
	}
}
