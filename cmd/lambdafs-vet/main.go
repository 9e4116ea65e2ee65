// Command lambdafs-vet runs the repository's custom static analyzer, eight
// checks enforcing the disciplines the λFS reproduction's evaluation
// depends on: virtualtime (no wall clock, no wait or goroutine clock.Sim
// cannot see), determinism, locks, spans, errcheck, metricnames, slorules
// (SLO rules name registered metrics), and lockorder (lock-acquisition-order
// cycles over a module-wide call graph). Built purely on the standard
// library's go/ast, go/parser, go/token, and go/types.
//
// Usage:
//
//	lambdafs-vet ./...        analyze every package in the module
//	lambdafs-vet DIR [DIR…]   analyze the packages in specific directories
//	lambdafs-vet -json ./...  machine-readable findings + per-check counts
//
// Findings print as `file:line: [check] message` (with -json, as one JSON
// document on stdout); the exit status is nonzero when any finding
// remains. `//vet:allow <check> <reason>` suppressions are honored,
// counted, and reported — a missing reason is itself a finding, and so is
// a stale suppression that no longer suppresses anything.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"lambdafs/internal/vet"
)

func main() {
	quiet := flag.Bool("q", false, "suppress the allowlist report; print findings only")
	asJSON := flag.Bool("json", false, "emit findings, suppressions, and per-check counts as JSON on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lambdafs-vet [-q] [-json] ./... | DIR...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lambdafs-vet: %v\n", err)
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	var res *vet.Result
	if len(args) == 1 && (args[0] == "./..." || args[0] == "...") {
		res, err = vet.CheckRepo(root)
	} else {
		var l *vet.Loader
		l, err = vet.NewLoader(root)
		if err == nil {
			var pkgs []*vet.Package
			pkgs, err = l.LoadDirs(absAll(args))
			if err == nil {
				res = vet.Analyze(l, pkgs)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lambdafs-vet: %v\n", err)
		os.Exit(2)
	}

	if *asJSON {
		if err := res.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "lambdafs-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range res.Findings {
			fmt.Println(f)
		}
	}
	if !*quiet {
		for _, s := range res.Suppressed {
			fmt.Fprintln(os.Stderr, s)
		}
		fmt.Fprintf(os.Stderr, "lambdafs-vet: %d package(s), %d finding(s), %d suppression(s)\n",
			res.NumPackages, len(res.Findings), len(res.Suppressed))
	}
	if len(res.Findings) > 0 {
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func absAll(paths []string) []string {
	out := make([]string, 0, len(paths))
	for _, p := range paths {
		if a, err := filepath.Abs(p); err == nil {
			out = append(out, a)
		} else {
			out = append(out, p)
		}
	}
	return out
}
