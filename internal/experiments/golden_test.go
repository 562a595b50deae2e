package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the quick-run goldens under testdata/quick")

// TestQuickGoldens pins the numbers every experiment reports at its
// quick scale, where the shape tests above check only shapes: each
// experiment's -format json output (table1's text, the one text-only
// report) must match its golden byte for byte. The runs are
// deterministic, parallel fan-out included, so any difference is a
// change in what the semantics, the machine model, mitigation or the
// §7 accounting computes. Rewrite the goldens only for a deliberate
// change of one of those (go test ./internal/experiments -run
// TestQuickGoldens -update) and say which numbers moved and why.
func TestQuickGoldens(t *testing.T) {
	// The harness's defaults, at quick scale.
	opts := RunOptions{Quick: true, Parallel: true, Engine: "tree"}
	for _, e := range All() {
		rep, err := e.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		var got bytes.Buffer
		name := e.Name + ".json"
		if rep.Data == nil {
			got.WriteString(rep.Text)
			name = e.Name + ".txt"
		} else if err := WriteJSON(&got, rep.Data); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		path := filepath.Join("testdata", "quick", name)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (record with -update)", e.Name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: quick output differs from %s%s", e.Name, path, firstDiff(want, got.Bytes()))
		}
	}
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("\nline %d:\n want %s\n  got %s", i+1, wl, gl)
		}
	}
	return ""
}
