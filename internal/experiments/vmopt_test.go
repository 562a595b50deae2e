package experiments

import (
	"strings"
	"testing"
)

// TestVmoptQuick asserts the experiment's claims: the passes fuse the
// hot loop, every workload's VM run is observationally identical to
// sem/full, and the report renders the stats.
func TestVmoptQuick(t *testing.T) {
	d, err := Vmopt()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Programs) != len(vmoptPrograms) {
		t.Fatalf("programs = %d, want %d", len(d.Programs), len(vmoptPrograms))
	}
	for _, p := range d.Programs {
		if !p.Identical {
			t.Errorf("%s: VM run must match sem/full", p.Name)
		}
		if p.OrigInstrs <= 0 || p.OptInstrs <= 0 || p.OptInstrs > p.OrigInstrs {
			t.Errorf("%s: instruction counts %d -> %d", p.Name, p.OrigInstrs, p.OptInstrs)
		}
		// Accounting: unfused survivors plus absorbed originals cover
		// the original program.
		if unfused := p.OptInstrs - p.FusedInstrs; unfused+p.FusedOrig != p.OrigInstrs {
			t.Errorf("%s: %d unfused + %d absorbed != %d original",
				p.Name, unfused, p.FusedOrig, p.OrigInstrs)
		}
	}
	hot := d.Programs[0]
	if hot.Name != "hotloop" || hot.FusedInstrs == 0 {
		t.Errorf("hotloop must fuse: %+v", hot)
	}
	text := d.Render()
	for _, want := range []string{"hotloop", "fused", "identical"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render() missing %q:\n%s", want, text)
		}
	}
	if len(d.CSVRows()) != len(d.Programs) {
		t.Errorf("CSV rows = %d, want %d", len(d.CSVRows()), len(d.Programs))
	}
	if got, want := len(d.CSVHeader()), len(d.CSVRows()[0]); got != want {
		t.Errorf("CSV header %d columns, rows %d", got, want)
	}
}
