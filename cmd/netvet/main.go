// Command netvet is the repo's concurrency and resource-lifecycle
// analyzer: a stdlib-only static checker (go/ast + go/types, no
// x/tools) enforcing the invariants the paper's stream/mux
// architecture depends on. It walks the whole module and reports:
//
//	lock-across-send    sync lock held across a park, or across a call
//	                    that may park (with the call chain to the park)
//	unclosed-resource   closeable value dropped without Close
//	naked-ctl-string    ctl literal bypassing the netmsg helpers
//	lock-order          cycle in the module-wide lock order graph
//	realtime            direct time.Now/Sleep/After where a vclock.Clock
//	                    should be threaded
//
// Leaks of goroutines and blocks are runtime gates' business, not
// netvet's: leakcheck.Main fails a package that ends its tests with
// either outstanding.
//
// Usage:
//
//	go run ./cmd/netvet ./...
//	go run ./cmd/netvet -tests -checks lock-across-send ./...
//	go run ./cmd/netvet -json ./...
//
// Deliberate exceptions carry a `//netvet:ignore <checks> <why>`
// directive on the offending line (or the line above); suppressed
// findings are counted in the summary so they stay reviewable, and
// -ignored lists each one with the directive that silenced it. -json
// emits the whole report (live and suppressed findings, directives)
// as one JSON document for tooling. A directive that matched no finding
// is itself a diagnostic (check "directive"): a stale suppression fails
// the run like any other finding.
// Exit status is 1 when unsuppressed diagnostics remain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	tests := flag.Bool("tests", false, "also analyze _test.go files")
	checksFlag := flag.String("checks", "", "comma-separated checks to run (default: all)")
	quiet := flag.Bool("q", false, "suppress the summary line")
	jsonOut := flag.Bool("json", false, "emit the report as JSON on stdout")
	ignored := flag.Bool("ignored", false, "also list suppressed findings and the directives that silenced them")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: netvet [-tests] [-checks list] [-json] [-ignored] [./... | dir]\nchecks: %s\n",
			strings.Join(analysis.CheckNames(), ", "))
	}
	flag.Parse()

	root, err := moduleRoot(flag.Args())
	if err != nil {
		fatal(err)
	}
	checks, err := selectChecks(*checksFlag)
	if err != nil {
		fatal(err)
	}

	mod, err := analysis.LoadModule(root, *tests)
	if err != nil {
		fatal(err)
	}
	res := analysis.Run(mod, checks)
	if *jsonOut {
		if err := writeJSON(os.Stdout, root, res); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range res.Diags {
			fmt.Printf("%s: %s: %s\n", relPos(root, d.Pos), d.Check, d.Message)
		}
		if *ignored {
			for _, sd := range res.Ignored {
				fmt.Printf("%s: %s: %s (suppressed at %s: %s)\n",
					relPos(root, sd.Pos), sd.Check, sd.Message,
					relPos(root, sd.By.Pos), sd.By.Reason)
			}
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "netvet: %d package(s), %d diagnostic(s)%s\n",
			len(mod.Pkgs), len(res.Diags), suppressedSummary(res))
	}
	if len(res.Diags) > 0 {
		os.Exit(1)
	}
}

// relPos rewrites a position's filename relative to the module root
// when it lies inside it.
func relPos(root string, pos token.Position) token.Position {
	if rel, err := filepath.Rel(root, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		pos.Filename = rel
	}
	return pos
}

// jsonDiag is one finding in -json output; IgnoredBy is present only
// on suppressed findings.
type jsonDiag struct {
	Check     string         `json:"check"`
	Pos       string         `json:"pos"`
	Message   string         `json:"message"`
	IgnoredBy *jsonDirective `json:"ignored-by,omitempty"`
}

type jsonDirective struct {
	Pos     string   `json:"pos"`
	Checks  []string `json:"checks"`
	Reason  string   `json:"reason"`
	Matched int      `json:"matched"`
}

type jsonReport struct {
	Diagnostics []jsonDiag      `json:"diagnostics"`
	Ignored     []jsonDiag      `json:"ignored"`
	Directives  []jsonDirective `json:"directives"`
}

func writeJSON(w io.Writer, root string, res *analysis.Result) error {
	rep := jsonReport{
		Diagnostics: []jsonDiag{},
		Ignored:     []jsonDiag{},
		Directives:  []jsonDirective{},
	}
	for _, d := range res.Diags {
		rep.Diagnostics = append(rep.Diagnostics, jsonDiag{
			Check: d.Check, Pos: relPos(root, d.Pos).String(), Message: d.Message,
		})
	}
	for _, sd := range res.Ignored {
		by := directiveJSON(root, sd.By)
		rep.Ignored = append(rep.Ignored, jsonDiag{
			Check: sd.Check, Pos: relPos(root, sd.Pos).String(), Message: sd.Message,
			IgnoredBy: &by,
		})
	}
	for _, dir := range res.Directives {
		rep.Directives = append(rep.Directives, directiveJSON(root, dir))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(rep)
}

func directiveJSON(root string, d *analysis.Directive) jsonDirective {
	return jsonDirective{
		Pos: relPos(root, d.Pos).String(), Checks: d.Checks,
		Reason: d.Reason, Matched: d.Matched,
	}
}

// moduleRoot resolves the argument (./..., a directory, or nothing)
// to the nearest enclosing directory holding go.mod.
func moduleRoot(args []string) (string, error) {
	dir := "."
	for _, a := range args {
		if a == "./..." || a == "..." {
			continue
		}
		dir = strings.TrimSuffix(a, "/...")
		break
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("netvet: no go.mod at or above %s", dir)
		}
	}
}

func selectChecks(list string) ([]*analysis.Check, error) {
	all := analysis.Checks()
	if list == "" {
		return all, nil
	}
	byName := map[string]*analysis.Check{}
	for _, c := range all {
		byName[c.Name] = c
	}
	var out []*analysis.Check
	for _, name := range strings.Split(list, ",") {
		c := byName[strings.TrimSpace(name)]
		if c == nil {
			return nil, fmt.Errorf("netvet: unknown check %q (have %s)",
				name, strings.Join(analysis.CheckNames(), ", "))
		}
		out = append(out, c)
	}
	return out, nil
}

func suppressedSummary(res *analysis.Result) string {
	if len(res.Suppressed) == 0 {
		return ""
	}
	var parts []string
	for name, n := range res.Suppressed {
		parts = append(parts, fmt.Sprintf("%s %d", name, n))
	}
	sort.Strings(parts)
	return ", suppressed: " + strings.Join(parts, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
