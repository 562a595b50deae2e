package bytecode_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/lattice"
	"repro/internal/progen"
)

// The golden file pins the VM's observable outcome on every program of
// the differential corpus (the optTestSources plus progen seeds 1–40),
// on all four machine environments. Its rows were recorded from the
// stack interpreter before the register loop became the VM's only
// loop; the same costs are checked against sem/full by the exec
// differential suite. Rewrite the file only for a deliberate
// cost-model change (the failing test reports each new row) and say so
// in CHANGES.md.
const goldenFile = "testdata/vm_golden.txt"

// goldenBudget is the step budget of every golden run; all of them
// finish well inside it.
const goldenBudget = 2_000_000

// goldenCase is one program of the golden corpus.
type goldenCase struct{ name, src string }

func goldenCases(t *testing.T, lat lattice.Lattice) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, tc := range optTestSources {
		cases = append(cases, goldenCase{tc.name, tc.src})
	}
	for seed := int64(1); seed <= 40; seed++ {
		_, _, src, err := progen.GenerateTyped(progen.Config{
			Lat: lat, Seed: seed, AllowMitigate: true, AllowSleep: true,
		}, 50)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cases = append(cases, goldenCase{fmt.Sprintf("seed%d", seed), src})
	}
	return cases
}

// goldenKey identifies a row: program, environment, and the cost
// model, which is always sem/full's, named "tree" in the rows.
func goldenKey(name, envName string) string {
	return name + " " + envName + " tree"
}

// goldenRow renders a run as one row: its key, whether it failed, the
// clock and step count, and a SHA-256 over the trace, the mitigation
// records, the final scalars and arrays, and the hardware counters.
func goldenRow(key string, s optSnap) string {
	h := sha256.New()
	for _, e := range s.trace {
		fmt.Fprintf(h, "event %s %d %d\n", e.Var, e.Value, e.Time)
	}
	for _, m := range s.mits {
		fmt.Fprintf(h, "mit %+v\n", m)
	}
	fmt.Fprintf(h, "scalars %v\narrays %v\nstats %+v\n", s.scalars, s.arrays, s.stats)
	return fmt.Sprintf("%s err=%t clock=%d steps=%d %x", key, s.err != nil, s.clock, s.steps, h.Sum(nil))
}

// loadGolden reads the golden file into a map from row key to row.
func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) < 3 {
			t.Fatalf("malformed golden row %q", line)
		}
		rows[rowKey(line)] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// goldenRows runs every golden program on the VM and renders the rows
// in corpus order.
func goldenRows(t *testing.T) []string {
	t.Helper()
	lat := lattice.TwoPoint()
	envs := optEnvs(lat)
	envNames := make([]string, 0, len(envs))
	for name := range envs {
		envNames = append(envNames, name)
	}
	sort.Strings(envNames)
	var rows []string
	for _, tc := range goldenCases(t, lat) {
		bc := compileOpt(t, tc.src, lat)
		for _, envName := range envNames {
			s := runSnap(t, bc, envs[envName](), bytecode.VMOptions{}, goldenBudget, 1)
			rows = append(rows, goldenRow(goldenKey(tc.name, envName), s))
		}
	}
	return rows
}

// rowKey is the key prefix of a rendered row.
func rowKey(row string) string {
	return strings.Join(strings.Fields(row)[:3], " ")
}

// TestVMGolden requires the VM to reproduce every row of the golden
// file exactly.
func TestVMGolden(t *testing.T) {
	want := loadGolden(t)
	rows := goldenRows(t)
	for _, got := range rows {
		if w := want[rowKey(got)]; got != w {
			t.Errorf("golden row differs:\n want %s\n  got %s", w, got)
		}
	}
	if len(rows) != len(want) {
		t.Errorf("ran %d golden cases, file has %d rows", len(rows), len(want))
	}
}
