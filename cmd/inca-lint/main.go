// Command inca-lint is the repository's multichecker: it runs the custom
// static-analysis suite (determinism, traceguard, clockowner, pairing,
// testonly, lockdiscipline, boundtrust) over every package in the module and
// prints findings in a deterministic file:line order.
//
// Usage:
//
//	inca-lint [-dir .] [-only determinism,pairing] [-report]
//
// Exit status is 1 when findings exist, unless -report is set (report mode
// prints the same findings but always exits 0 — the `make lint-report` hook
// for surveying violations without failing the build), and 2 when the
// module cannot be linted or -only names an unknown analyzer.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"inca/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, errw io.Writer) int {
	fs := flag.NewFlagSet("inca-lint", flag.ContinueOnError)
	fs.SetOutput(errw)
	dir := fs.String("dir", ".", "module root to lint (directory containing go.mod)")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	report := fs.Bool("report", false, "print findings but exit 0 (survey mode)")
	fs.Usage = func() {
		fmt.Fprintf(errw, "usage: inca-lint [flags]\n\nanalyzers:\n")
		for _, sa := range lint.Suite {
			fmt.Fprintf(errw, "  %-12s %s\n", sa.Name, sa.Doc)
		}
		fmt.Fprintf(errw, "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var filter map[string]bool
	if *only != "" {
		filter = make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			known := false
			for _, sa := range lint.Suite {
				if sa.Name == name {
					known = true
					break
				}
			}
			if !known {
				fmt.Fprintf(errw, "inca-lint: unknown analyzer %q\n", name)
				return 2
			}
			filter[name] = true
		}
	}

	diags, err := lint.RunSuite(*dir, filter)
	if err != nil {
		fmt.Fprintf(errw, "inca-lint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(errw, "inca-lint: %d finding(s)\n", len(diags))
		if !*report {
			return 1
		}
	}
	return 0
}
