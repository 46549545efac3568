// Command bsfs-vet enforces the project's invariants over Go packages
// with six rules: all time through cluster.Env (walltime), all
// concurrency through Env.Go/Daemon/WaitGroup (nakedgo), errors.Is
// instead of sentinel identity (sentinelcmp), end-to-end Ctx
// forwarding (ctxflow), no blocking environment call under a held
// mutex (lockedblock), and no exported name without a caller outside
// its package (deadexport). See internal/analysis for the invariants
// and the suppression syntax.
//
// Usage:
//
//	bsfs-vet [-rules walltime,nakedgo,...] [packages]
//
// Packages default to ./... . The benchmark module under cmd/bsfs-perf
// is always loaded too; deadexport needs every caller loaded, so run it
// over ./... . The exit status is 1 if any finding survives policy and
// suppressions, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	rules := flag.String("rules", "", "comma-separated rules to run (default: all)")
	list := flag.Bool("list", false, "list available rules and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bsfs-vet [-rules r1,r2] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	as, err := analysis.ByName(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsfs-vet:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.NewLoader().LoadRepository(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsfs-vet:", err)
		os.Exit(2)
	}

	findings := analysis.Check(pkgs, as)
	cwd, _ := os.Getwd()
	for _, f := range findings {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
				f.Pos.Filename = rel
			}
		}
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "bsfs-vet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}
