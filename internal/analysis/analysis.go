// Package analysis is netvet's engine: a stdlib-only static analyzer
// (go/ast + go/parser + go/types, no x/tools) enforcing the
// concurrency and resource-lifecycle invariants the paper's network
// organization depends on. The module is a web of cooperating
// kernel-process analogues — stream put chains, the mount driver's
// RPC demux, protocol engines — and the checks target exactly the
// failure shapes such code grows at scale:
//
//	lock-across-send    a sync.Mutex/RWMutex held across a park: a
//	                    channel operation, a blocking call, one of the
//	                    virtual clock's primitives — or a call to a
//	                    function that may reach one, through static and
//	                    interface calls, with the chain down to the park
//	unjoined-goroutine  a go statement whose body can never exit —
//	                    a leak candidate with no shutdown path
//	unclosed-resource   a closeable value created and dropped without
//	                    Close/Free/Unmount and without escaping
//	naked-ctl-string    an ad-hoc ctl message literal bypassing the
//	                    canonical netmsg formatting helpers
//	block-ownership     a pooled block freed twice, used after its
//	                    ownership was transferred, or leaked on an
//	                    early-return path (path-sensitive, over the
//	                    CFG/dataflow engine in cfg.go and dataflow.go)
//	lock-order          a cycle in the whole-module lock acquisition
//	                    graph, keyed by (type, field), with witness
//	                    paths for both directions
//	realtime            a direct time.Now/time.Sleep/time.After call
//	                    where a vclock.Clock should be threaded, so
//	                    virtual-time runs stay deterministic
//
// The two lock checks are reporters over one held-lock solve (locks.go):
// one dataflow per function body, one set of per-function summaries
// closed over the module's call graph.
//
// Ownership transfer across calls is declared, not guessed: a callee
// that consumes a block parameter carries a directive on its
// declaration,
//
//	//netvet:owns <param>[,<param>...]
//
// and the block-ownership check treats a call through it as the end of
// the caller's ownership. Free/Put/PutNext/PutBytes are implicitly
// owning, matching the block package's contract.
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
	"go/ast"
	"go/token"
	"go/types"
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

// Check is one named invariant. Run is called once per package to
// collect; the optional Finish is called once per module after every
// package ran, for checks (the two lock checks) whose findings are
// global.
type Check struct {
	Name   string
	Doc    string
	Run    func(p *Pass)
	Finish func(p *Pass) // optional; p.Pkg is nil
}

// Checks returns all checks, in reporting order.
func Checks() []*Check {
	return []*Check{
		lockAcrossSendCheck,
		unjoinedGoroutineCheck,
		unclosedResourceCheck,
		nakedCtlStringCheck,
		blockOwnershipCheck,
		lockOrderCheck,
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

// Pass is one check running over one package (or, in a Finish call,
// over the module as a whole, with Pkg nil).
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

// Ignored reports whether a directive for the pass's check covers pos:
// how a check lets a directive remove a fact (a park from a call
// summary) rather than a diagnostic.
func (p *Pass) Ignored(pos token.Pos) bool {
	return p.res.ignored(p.Fset.Position(pos), p.check.Name) != nil
}

// Owns returns the declared ownership transfer of fn's parameters:
// recv is true when the receiver is consumed, params holds the
// consumed parameter indices. ok is false for undeclared functions.
func (p *Pass) Owns(fn *types.Func) (fact OwnsFact, ok bool) {
	fact, ok = p.res.owns[fn]
	return fact, ok
}

// OwnsFact is one //netvet:owns declaration, resolved to positions in
// the function's signature.
type OwnsFact struct {
	Recv   bool
	Params []int
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

	ignores   map[string]map[int][]*Directive // filename -> line -> directives
	owns      map[*types.Func]OwnsFact
	localPkgs map[string]bool               // import paths of the loaded packages
	named     []*types.Named                // their package-level concrete types
	impls     map[*types.Func][]*types.Func // interface method -> module-local implementations
	locks     *lockFacts                    // the held-lock solve, shared by its reporters
}

// Run executes the checks over every package of the module.
func Run(mod *Module, checks []*Check) *Result {
	res := &Result{
		Suppressed: make(map[string]int),
		ignores:    make(map[string]map[int][]*Directive),
		owns:       make(map[*types.Func]OwnsFact),
		localPkgs:  make(map[string]bool),
		impls:      make(map[*types.Func][]*types.Func),
	}
	for _, pkg := range mod.Pkgs {
		if pkg.Types == nil {
			continue
		}
		res.localPkgs[pkg.Types.Path()] = true
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, _ := scope.Lookup(name).(*types.TypeName)
			if tn == nil || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) && n.TypeParams().Len() == 0 {
				res.named = append(res.named, n)
			}
		}
	}
	for _, pkg := range mod.Pkgs {
		res.collectDirectives(mod.Fset, pkg)
		res.collectOwns(mod.Fset, pkg)
	}
	for _, pkg := range mod.Pkgs {
		for _, c := range checks {
			c.Run(&Pass{Fset: mod.Fset, Pkg: pkg, check: c, res: res})
		}
	}
	for _, c := range checks {
		if c.Finish != nil {
			c.Finish(&Pass{Fset: mod.Fset, check: c, res: res})
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

// Directive prefixes.
const (
	ignorePrefix = "//netvet:ignore"
	ownsPrefix   = "//netvet:owns"
)

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

// collectOwns resolves every //netvet:owns directive to the function
// it documents. The directive must sit in (or immediately form) the
// doc comment of a FuncDecl, and every name must be a parameter or
// the receiver of that function.
func (r *Result) collectOwns(fset *token.FileSet, pkg *Pkg) {
	for _, f := range pkg.Files {
		// Directives by end line, to catch doc groups.
		type ownsDir struct {
			names []string
			pos   token.Pos
		}
		dirs := map[int]ownsDir{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ownsPrefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				var names []string
				for _, field := range strings.Fields(rest) {
					for _, n := range strings.Split(field, ",") {
						if n = strings.TrimSpace(n); n != "" {
							names = append(names, n)
						}
					}
				}
				line := fset.Position(c.Pos()).Line
				dirs[line] = ownsDir{names: names, pos: c.Pos()}
			}
		}
		if len(dirs) == 0 {
			continue
		}
		claimed := map[int]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			// Any directive line between the doc comment's start and
			// the declaration belongs to this function.
			funcLine := fset.Position(fd.Pos()).Line
			startLine := funcLine - 1
			if fd.Doc != nil {
				startLine = fset.Position(fd.Doc.Pos()).Line
			}
			for line := startLine; line < funcLine; line++ {
				dir, ok := dirs[line]
				if !ok {
					continue
				}
				claimed[line] = true
				r.applyOwns(fset, pkg, fd, dir.names, dir.pos)
			}
		}
		for line, dir := range dirs {
			if !claimed[line] {
				_ = line
				r.reportRaw(fset.Position(dir.pos), "directive", "//netvet:owns is not attached to a function declaration")
			}
		}
	}
}

// applyOwns validates one owns directive against fd's signature and
// records the fact.
func (r *Result) applyOwns(fset *token.FileSet, pkg *Pkg, fd *ast.FuncDecl, names []string, pos token.Pos) {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	if len(names) == 0 {
		r.reportRaw(fset.Position(pos), "directive", "//netvet:owns needs parameter names")
		return
	}
	fact := r.owns[fn]
	for _, name := range names {
		found := false
		if recv := sig.Recv(); recv != nil && recv.Name() == name {
			fact.Recv = true
			found = true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i).Name() == name {
				fact.Params = append(fact.Params, i)
				found = true
			}
		}
		if !found {
			r.reportRaw(fset.Position(pos), "directive",
				fmt.Sprintf("//netvet:owns names %q, which is not a parameter of %s", name, fd.Name.Name))
			return
		}
	}
	sort.Ints(fact.Params)
	r.owns[fn] = fact
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

// inspectSkippingFuncLits walks the subtree rooted at n without
// descending into nested function literals — their bodies run on other
// goroutines (or later) and are analyzed separately.
func inspectSkippingFuncLits(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
