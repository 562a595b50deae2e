package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bytecode"
	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/sem/full"
	"repro/internal/sem/mem"
	"repro/internal/types"
)

// The vmopt experiment evaluates the passes that link every bytecode
// program to the register form the VM executes (register lowering and
// superinstruction fusion, internal/bytecode/lower.go): for a set of
// representative programs it reports what the passes did (instruction
// counts, emitted superinstructions by pattern) and re-proves that the
// VM under TimingTree is observationally identical to the tree-walking
// semantics (clock, event trace, mitigation records, final memory,
// hardware counters).

func init() {
	MustRegister(Experiment{
		Name: "vmopt", Order: 110,
		Summary: "bytecode pipeline: fusion stats, identity with sem/full",
		Run: func(RunOptions) (*Report, error) {
			d, err := Vmopt()
			if err != nil {
				return nil, err
			}
			return &Report{Text: d.Render(), Data: d}, nil
		},
	})
}

// vmoptPrograms are the workloads: "hotloop" is compute-bound (a
// fusable immediate-arithmetic chain and compare-and-branch dominate),
// the others broaden the static-stats and identity table.
var vmoptPrograms = []struct{ name, src string }{
	{"hotloop", `
var n : L;
var i : L;
var acc : L;
array a[16] : L;
while (i < n) {
    acc := ((acc * 31 + 7) % 8191) * 3 + i;
    i := i + 1;
}
a[acc % 16] := acc;
acc := acc + a[(acc + 5) % 16];
`},
	{"straightline", `
var x : L;
var y : L;
x := 7;
y := x + 2;
x := y * y - 1;
`},
	{"mitigated", `
var h : H;
var l : L;
mitigate (2, H) [L,L] {
    sleep(h % 16) [H,H];
}
l := 1;
`},
}

// VmoptProgram is one workload's row: what the passes emitted and
// whether the VM matched sem/full exactly.
type VmoptProgram struct {
	Name        string
	OrigInstrs  int
	OptInstrs   int
	FusedInstrs int
	// FusedOrig counts original instructions absorbed into
	// superinstructions.
	FusedOrig int
	// Patterns lists emitted superinstructions as "MNEMONIC×count",
	// most frequent first.
	Patterns string
	// Identical is true when clock, event trace, mitigation records,
	// final memory, and hardware counters matched between the VM under
	// TimingTree and sem/full.
	Identical bool
}

// VmoptData holds the experiment's results.
type VmoptData struct {
	Programs []VmoptProgram
}

// vmoptLoopN is hotloop's trip count in the identity runs.
const vmoptLoopN = 100

// vmoptInput is the initial value of the i-th declared scalar.
func vmoptInput(i int, name string) int64 {
	if name == "n" {
		return vmoptLoopN
	}
	return int64(i) + 2
}

// vmoptIdentical runs bp on the VM under TimingTree and its source on
// sem/full, each on a fresh partitioned machine, and reports whether
// everything observable matched.
func vmoptIdentical(prog *ast.Program, res *types.Result, bp *bytecode.Program, lat lattice.Lattice) (bool, error) {
	vmEnv := hw.NewPartitioned(lat, hw.Table1Config())
	vm := bytecode.NewVM(bp, vmEnv, bytecode.VMOptions{Timing: bytecode.TimingTree})
	treeEnv := hw.NewPartitioned(lat, hw.Table1Config())
	m, err := full.New(prog, res, treeEnv, full.Options{})
	if err != nil {
		return false, err
	}
	for i, name := range bp.ScalarNames {
		if err := vm.SetScalar(name, vmoptInput(i, name)); err != nil {
			return false, err
		}
		m.Memory().Set(name, vmoptInput(i, name))
	}
	if err := vm.Run(0); err != nil {
		return false, err
	}
	if err := m.Run(0); err != nil {
		return false, err
	}
	vmMem := mem.New(prog)
	vm.StoreTo(vmMem)
	return vm.Clock() == m.Clock() &&
		vm.Trace().Equal(m.Trace()) &&
		slices.Equal(vm.Mitigations(), m.Mitigations()) &&
		vmMem.Equal(m.Memory()) &&
		vmEnv.Stats() == treeEnv.Stats(), nil
}

// Vmopt runs the experiment.
func Vmopt() (*VmoptData, error) {
	lat := lattice.TwoPoint()
	d := &VmoptData{}
	for _, w := range vmoptPrograms {
		prog, err := parser.Parse(w.src)
		if err != nil {
			return nil, fmt.Errorf("vmopt %s: %w", w.name, err)
		}
		res, err := types.Check(prog, lat)
		if err != nil {
			return nil, fmt.Errorf("vmopt %s: %w", w.name, err)
		}
		bp, err := bytecode.Compile(prog, res)
		if err != nil {
			return nil, fmt.Errorf("vmopt %s: %w", w.name, err)
		}
		st := bp.Opt.Stats
		identical, err := vmoptIdentical(prog, res, bp, lat)
		if err != nil {
			return nil, fmt.Errorf("vmopt %s: %w", w.name, err)
		}
		d.Programs = append(d.Programs, VmoptProgram{
			Name:        w.name,
			OrigInstrs:  st.OrigInstrs,
			OptInstrs:   st.OptInstrs,
			FusedInstrs: st.FusedInstrs,
			FusedOrig:   st.FusedOrig,
			Patterns:    formatPatterns(st.Patterns),
			Identical:   identical,
		})
	}
	return d, nil
}

// formatPatterns renders a pattern histogram as "MNEMONIC×n ...",
// most frequent first (name-ordered among equals, for determinism).
func formatPatterns(pats map[string]int) string {
	names := make([]string, 0, len(pats))
	for n := range pats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if pats[names[i]] != pats[names[j]] {
			return pats[names[i]] > pats[names[j]]
		}
		return names[i] < names[j]
	})
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s×%d", n, pats[n])
	}
	return strings.Join(parts, " ")
}

// Render formats the experiment for the terminal.
func (d *VmoptData) Render() string {
	var b strings.Builder
	b.WriteString("E8: Bytecode pipeline (register lowering + fusion), VM vs sem/full\n")
	for _, p := range d.Programs {
		ident := "identical"
		if !p.Identical {
			ident = "MISMATCH"
		}
		fmt.Fprintf(&b, "%-13s %3d → %3d instrs, %2d fused (absorbing %2d), %s\n",
			p.Name+":", p.OrigInstrs, p.OptInstrs, p.FusedInstrs, p.FusedOrig, ident)
		if p.Patterns != "" {
			fmt.Fprintf(&b, "              %s\n", p.Patterns)
		}
	}
	return b.String()
}

// CSVHeader implements CSV.
func (d *VmoptData) CSVHeader() []string {
	return []string{"program", "orig_instrs", "opt_instrs", "fused_instrs",
		"fused_orig", "identical", "patterns"}
}

// CSVRows implements CSV.
func (d *VmoptData) CSVRows() [][]string {
	rows := make([][]string, 0, len(d.Programs))
	for _, p := range d.Programs {
		rows = append(rows, []string{
			p.Name, strconv.Itoa(p.OrigInstrs), strconv.Itoa(p.OptInstrs),
			strconv.Itoa(p.FusedInstrs), strconv.Itoa(p.FusedOrig),
			strconv.FormatBool(p.Identical), p.Patterns,
		})
	}
	return rows
}
