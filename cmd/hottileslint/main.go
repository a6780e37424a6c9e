// Command hottileslint runs the repository's custom static-analysis suite
// (internal/analysis/passes): the determinism, concurrency and
// observability invariants DESIGN.md §11 documents, enforced mechanically.
// Every run applies the whole suite and audits //lint:ignore directives.
//
//	hottileslint [flags] [packages]     # patterns default to ./...
//	hottileslint -json ./...            # machine-readable diagnostics
//	hottileslint -C dir ./...           # analyze the module in dir
//
// Exit status: 0 clean, 1 diagnostics or usage errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	suite := passes.All()

	fs := flag.NewFlagSet("hottileslint", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array")
	dir := fs.String("C", ".", "module directory to analyze from")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: hottileslint [flags] [package patterns]\n\nAnalyzers:\n")
		for _, a := range suite {
			fmt.Fprintf(fs.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(fs.Output(), "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hottileslint:", err)
		return 1
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "hottileslint: %s: type error: %v\n", p.Path, terr)
		}
		if len(p.TypeErrors) > 0 {
			return 1
		}
	}
	diags, err := analysis.RunChecked(pkgs, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hottileslint:", err)
		return 1
	}
	if *asJSON {
		if err := analysis.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "hottileslint:", err)
			return 1
		}
	} else {
		analysis.WriteText(os.Stderr, diags)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
