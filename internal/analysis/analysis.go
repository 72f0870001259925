// Package analysis is netvet's engine: a stdlib-only static analyzer
// (go/ast + go/parser + go/types, no x/tools) enforcing the
// resource-lifecycle and clock invariants the paper's network
// organization depends on, in the shapes no runtime gate (the race
// detector, leakcheck's goroutine and block books, the block package's
// double-free panic, the virtual clock's held-lock check) catches:
//
//	unclosed-resource   a closeable value created and dropped without
//	                    Close/Free/Unmount and without escaping
//	naked-ctl-string    an ad-hoc ctl message literal bypassing the
//	                    canonical netmsg formatting helpers
//	realtime            a direct time.Now/time.Sleep/time.After call
//	                    where a vclock.Clock should be threaded, so
//	                    virtual-time runs stay deterministic
//
// A lock held across a park is the clock's business, not netvet's: a
// vclock.Lock counts itself held by the running process, and every
// primitive that may park panics on entry while one is (vclock/lock.go).
//
// A finding is suppressed by a directive comment on its line or the
// line above:
//
//	//netvet:ignore <check>[,<check>...] <reason>
//
// The check names must be real and the reason must be non-empty —
// a reasonless or misspelled directive is itself reported (as check
// "directive", which cannot be suppressed), and so is a stale one: a
// directive that silenced nothing although every check it names ran.
// Suppressions are recorded individually, so deliberate exceptions stay
// visible and auditable (netvet -ignored lists them all).
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Message)
}

// Check is one named invariant, run once per package.
type Check struct {
	Name string
	Doc  string
	Run  func(p *Pass)
}

// Checks returns all checks, in reporting order.
func Checks() []*Check {
	return []*Check{
		unclosedResourceCheck,
		nakedCtlStringCheck,
		realtimeCheck,
	}
}

// CheckNames returns the valid check names.
func CheckNames() []string {
	var names []string
	for _, c := range Checks() {
		names = append(names, c.Name)
	}
	return names
}

// Pass is one check running over one package.
type Pass struct {
	Fset  *token.FileSet
	Pkg   *Pkg
	check *Check
	res   *Result
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.res.report(p.Fset.Position(pos), p.check.Name, fmt.Sprintf(format, args...))
}

// Directive is one //netvet:ignore comment.
type Directive struct {
	Pos     token.Position
	Checks  []string
	Reason  string
	Matched int // findings this directive suppressed
}

// SuppressedDiag is a finding a directive silenced, kept for -json
// and the suppression audit.
type SuppressedDiag struct {
	Diagnostic
	By *Directive
}

// Result accumulates findings and suppressions for a run.
type Result struct {
	Diags      []Diagnostic
	Suppressed map[string]int // check name -> suppressed findings
	Ignored    []SuppressedDiag
	Directives []*Directive

	ignores map[string]map[int][]*Directive // filename -> line -> directives
}

// Run executes the checks over every package of the module.
func Run(mod *Module, checks []*Check) *Result {
	res := &Result{
		Suppressed: make(map[string]int),
		ignores:    make(map[string]map[int][]*Directive),
	}
	for _, pkg := range mod.Pkgs {
		res.collectDirectives(mod.Fset, pkg)
	}
	for _, pkg := range mod.Pkgs {
		for _, c := range checks {
			c.Run(&Pass{Fset: mod.Fset, Pkg: pkg, check: c, res: res})
		}
	}
	// A directive that silenced nothing, although every check it names
	// ran, is stale: it asserts something about code that no longer
	// needs the assertion.
	ran := map[string]bool{}
	for _, c := range checks {
		ran[c.Name] = true
	}
	for _, d := range res.Directives {
		stale := d.Matched == 0
		for _, name := range d.Checks {
			stale = stale && ran[name]
		}
		if stale {
			res.reportRaw(d.Pos, "directive", fmt.Sprintf("//netvet:ignore %s matched no finding: delete it", strings.Join(d.Checks, ",")))
		}
	}
	sort.Slice(res.Directives, func(i, j int) bool {
		a, b := res.Directives[i], res.Directives[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	sort.Slice(res.Diags, func(i, j int) bool {
		a, b := res.Diags[i], res.Diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return res
}

// RunPkg executes the checks over a single package (the test-corpus
// entry point).
func RunPkg(fset *token.FileSet, pkg *Pkg, checks []*Check) *Result {
	mod := &Module{Fset: fset, Pkgs: []*Pkg{pkg}}
	return Run(mod, checks)
}

// ignorePrefix starts a suppression directive.
const ignorePrefix = "//netvet:ignore"

// collectDirectives scans a package's comments for ignore directives,
// validating check names and demanding a reason.
func (r *Result) collectDirectives(fset *token.FileSet, pkg *Pkg) {
	valid := map[string]bool{}
	for _, name := range CheckNames() {
		valid[name] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					r.reportRaw(pos, "directive", "//netvet:ignore needs a check list and a reason")
					continue
				}
				var checks []string
				bad := ""
				for _, name := range strings.Split(fields[0], ",") {
					name = strings.TrimSpace(name)
					if !valid[name] {
						bad = name
					}
					checks = append(checks, name)
				}
				if bad != "" {
					r.reportRaw(pos, "directive", fmt.Sprintf("//netvet:ignore names unknown check %q (have %s)",
						bad, strings.Join(CheckNames(), ", ")))
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
				if reason == "" {
					r.reportRaw(pos, "directive", fmt.Sprintf("//netvet:ignore %s needs a reason", fields[0]))
					continue
				}
				d := &Directive{Pos: pos, Checks: checks, Reason: reason}
				r.Directives = append(r.Directives, d)
				byLine := r.ignores[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*Directive)
					r.ignores[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], d)
			}
		}
	}
}

// ignored returns the directive suppressing a finding of check at pos
// (same line or the line immediately above), if any.
func (r *Result) ignored(pos token.Position, check string) *Directive {
	byLine := r.ignores[pos.Filename]
	if byLine == nil {
		return nil
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			for _, name := range d.Checks {
				if name == check {
					return d
				}
			}
		}
	}
	return nil
}

func (r *Result) report(pos token.Position, check, msg string) {
	if d := r.ignored(pos, check); d != nil {
		d.Matched++
		r.Suppressed[check]++
		r.Ignored = append(r.Ignored, SuppressedDiag{
			Diagnostic: Diagnostic{Pos: pos, Check: check, Message: msg},
			By:         d,
		})
		return
	}
	r.reportRaw(pos, check, msg)
}

// reportRaw records a diagnostic that no directive can silence — the
// path directive errors take.
func (r *Result) reportRaw(pos token.Position, check, msg string) {
	r.Diags = append(r.Diags, Diagnostic{Pos: pos, Check: check, Message: msg})
}
