// Command genfuzzcorpus regenerates the checked-in seed corpora for the
// native fuzz targets (parser.FuzzParse, bytecode.FuzzDecode,
// bytecode.FuzzOptTraceIdentity) from the example programs in
// testdata/. Run it from anywhere inside the repo
// after adding or changing example programs:
//
//	go run ./internal/tools/genfuzzcorpus
//
// Seeds are written in the `go test fuzz v1` corpus-file format, so
// plain `go test` exercises them and `go test -fuzz` mutates from them.
package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/bytecode"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/types"
)

func write(dir, name, body string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	content := "go test fuzz v1\n" + body + "\n"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		panic(err)
	}
}

func main() {
	repo := repoRoot()
	// Parser corpus: every checked-in example program.
	pdir := filepath.Join(repo, "internal/lang/parser/testdata/fuzz/FuzzParse")
	tcs, _ := filepath.Glob(filepath.Join(repo, "testdata", "*.tc"))
	for _, tc := range tcs {
		src, err := os.ReadFile(tc)
		if err != nil {
			panic(err)
		}
		name := "seed-" + filepath.Base(tc)
		write(pdir, name, "string("+strconv.Quote(string(src))+")")
	}

	// VM differential corpus: every example program, crossed over machine
	// environment and reference selectors, so the differential target
	// starts from real programs against both references: sem/full
	// (false) and the unfused register form (true).
	odir := filepath.Join(repo, "internal/bytecode/testdata/fuzz/FuzzOptTraceIdentity")
	for i, tc := range tcs {
		src, err := os.ReadFile(tc)
		if err != nil {
			panic(err)
		}
		for _, unfusedRef := range []bool{false, true} {
			name := fmt.Sprintf("seed-%s-%v", filepath.Base(tc), unfusedRef)
			body := fmt.Sprintf("string(%s)\nbyte(%d)\nbool(%v)\nbyte(%d)",
				strconv.Quote(string(src)), i%4, unfusedRef, i%11)
			write(odir, name, body)
		}
	}

	// Bytecode corpus: structural prefixes plus real compiled images.
	bdir := filepath.Join(repo, "internal/bytecode/testdata/fuzz/FuzzDecode")
	write(bdir, "seed-empty", "[]byte(\"\")")
	write(bdir, "seed-magic", "[]byte("+strconv.Quote("TCBC")+")")
	write(bdir, "seed-v1-header", "[]byte("+strconv.Quote("TCBC\x01")+")")
	write(bdir, "seed-v2-header", "[]byte("+strconv.Quote("TCBC\x02")+")")
	write(bdir, "seed-bad-version", "[]byte("+strconv.Quote("TCBC\x09")+")")
	lat := lattice.TwoPoint()
	for _, tc := range []string{"mitigated.tc", "rsa.tc", "login.tc"} {
		src, err := os.ReadFile(filepath.Join(repo, "testdata", tc))
		if err != nil {
			panic(err)
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			fmt.Println("skip", tc, err)
			continue
		}
		res, err := types.Check(prog, lat)
		if err != nil {
			fmt.Println("skip", tc, err)
			continue
		}
		bp, err := bytecode.Compile(prog, res)
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := bp.Encode(&buf); err != nil {
			panic(err)
		}
		write(bdir, "seed-"+tc, "[]byte("+strconv.Quote(buf.String())+")")
	}
	fmt.Println("done")
}

// repoRoot walks up from the working directory to the go.mod.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			panic("genfuzzcorpus: no go.mod found above the working directory")
		}
		dir = parent
	}
}
