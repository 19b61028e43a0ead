// Command tdblint runs the repo-specific static-analysis pass: the
// analyzers that mechanically enforce the paper's invariants (see
// internal/lint and the "Static analysis" section of DESIGN.md) over the
// type-checked module, using only the standard library.
//
// Usage:
//
//	tdblint [-rules r1,r2] [-json] [-list] [dir | ./...]
//
// The argument names the module to lint: a directory, or a ./... pattern
// whose root directory is used (every package of the module is always
// checked). Every analyzer runs unless -rules names a subset. Exit status
// is 0 when the tree is clean, 1 when findings were reported, 2 on a load
// or usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tdb/internal/lint"
)

func main() {
	rules := flag.String("rules", "", "comma-separated rule names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-24s %s\n", a.Name, a.Doc)
		}
		return
	}

	dir := "."
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "tdblint: at most one directory argument")
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		dir = flag.Arg(0)
		dir = strings.TrimSuffix(dir, "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" {
			dir = "."
		}
	}

	n, err := lint.Run(lint.Config{Dir: dir, Rules: *rules, JSON: *jsonOut}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdblint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "tdblint: %d finding(s)\n", n)
		os.Exit(1)
	}
}
