// Command corbalc-lint is the multichecker driving the CORBA-LC
// invariant analyzers over this repository:
//
//	locks              deferred-unlock hygiene; no blocking calls under a lock; no lock-order cycles
//	cdralign           CDR primitives encode through internal/cdr helpers
//	errpropagation     no silently dropped error results
//	ctxtimeout         no network dials without deadline or context
//	poolreturn         pooled buffers/encoders/messages reach a release point
//	goroutinelifetime  every go statement in internal/ ties to a tracked lifetime
//
// Usage:
//
//	corbalc-lint [-list] [packages...]
//
// Package patterns are directories, optionally /...-suffixed (default
// ./...). Stock `go vet` passes are `make vet`'s job. Exit status is 1
// when any diagnostic is reported.
//
// Findings are suppressed line-by-line with:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"

	"corbalc/internal/analysis"
	"corbalc/internal/analysis/cdralign"
	"corbalc/internal/analysis/ctxtimeout"
	"corbalc/internal/analysis/errpropagation"
	"corbalc/internal/analysis/goroutinelifetime"
	"corbalc/internal/analysis/locks"
	"corbalc/internal/analysis/poolreturn"
)

var analyzers = []*analysis.Analyzer{
	locks.Analyzer,
	cdralign.Analyzer,
	errpropagation.Analyzer,
	ctxtimeout.Analyzer,
	poolreturn.Analyzer,
	goroutinelifetime.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: corbalc-lint [-list] [packages...]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "corbalc-lint:", err)
		os.Exit(2)
	}
	failed := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			failed = true
			fmt.Fprintf(os.Stderr, "%v [typecheck]\n", terr)
		}
	}
	for _, d := range analysis.Run(analyzers, pkgs) {
		failed = true
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", pkgs[0].Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if failed {
		os.Exit(1)
	}
}
