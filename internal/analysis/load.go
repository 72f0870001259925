package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Pkg is one type-checked package of the module under analysis.
type Pkg struct {
	ImportPath string
	Dir        string
	Name       string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Module is a loaded, type-checked module: every package under the
// module root, in dependency order, sharing one FileSet.
type Module struct {
	Root string // absolute path of the directory holding go.mod
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Pkg
}

// LoadModule parses and type-checks every package under root (the
// directory containing go.mod) using only the standard library:
// local packages are resolved within the module, everything else
// through the source importer. testdata and hidden directories are
// skipped; _test.go files are included when includeTests is set
// (external _test packages are loaded as their own Pkg).
func LoadModule(root string, includeTests bool) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := &Module{Root: root, Path: modPath, Fset: token.NewFileSet()}

	dirs, err := goDirs(root)
	if err != nil {
		return nil, err
	}
	var raws []*rawPkg
	for _, dir := range dirs {
		ps, err := parseDir(mod.Fset, dir, includeTests)
		if err != nil {
			return nil, err
		}
		for _, rp := range ps {
			rel, _ := filepath.Rel(root, dir)
			rp.importPath = modPath
			if rel != "." {
				rp.importPath = modPath + "/" + filepath.ToSlash(rel)
			}
			if rp.external {
				rp.importPath += "_test"
			}
			raws = append(raws, rp)
		}
	}
	sorted, err := topoSort(raws, modPath)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		local: make(map[string]*types.Package),
		std:   importer.ForCompiler(mod.Fset, "source", nil),
	}
	for _, rp := range sorted {
		pkg, err := typeCheck(mod.Fset, rp, imp)
		if err != nil {
			return nil, err
		}
		imp.local[rp.importPath] = pkg.Types
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	return mod, nil
}

// rawPkg is a parsed, not-yet-typed package.
type rawPkg struct {
	importPath string
	dir        string
	name       string
	external   bool // an external foo_test package
	files      []*ast.File
}

// localImports lists the rp imports that live inside the module.
func (rp *rawPkg) localImports(modPath string) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range rp.files {
		for _, im := range f.Imports {
			p, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				continue
			}
			if (p == modPath || strings.HasPrefix(p, modPath+"/")) && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// goDirs returns every directory under root holding .go files,
// skipping hidden and testdata trees.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// parseDir parses one directory into its package (and, with tests, the
// external test package if present).
func parseDir(fset *token.FileSet, dir string, includeTests bool) ([]*rawPkg, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byName := map[string]*rawPkg{}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") && !includeTests {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if buildExcluded(f) {
			continue
		}
		pkgName := f.Name.Name
		rp := byName[pkgName]
		if rp == nil {
			rp = &rawPkg{dir: dir, name: pkgName, external: strings.HasSuffix(pkgName, "_test")}
			byName[pkgName] = rp
			names = append(names, pkgName)
		}
		rp.files = append(rp.files, f)
	}
	sort.Strings(names)
	var out []*rawPkg
	for _, n := range names {
		out = append(out, byName[n])
	}
	return out, nil
}

// buildExcluded reports whether a //go:build line above the package
// clause rules the file out of the default (tagless) build — e.g. a
// `//go:build race` variant whose !race twin is the one we analyze.
// Only GOOS, GOARCH and go1.x release tags evaluate true.
func buildExcluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return false
			}
			return !expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH || strings.HasPrefix(tag, "go1.")
			})
		}
	}
	return false
}

// topoSort orders packages so every local import precedes its users.
func topoSort(raws []*rawPkg, modPath string) ([]*rawPkg, error) {
	byPath := map[string]*rawPkg{}
	for _, rp := range raws {
		byPath[rp.importPath] = rp
	}
	var order []*rawPkg
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(rp *rawPkg) error
	visit = func(rp *rawPkg) error {
		switch state[rp.importPath] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", rp.importPath)
		case 2:
			return nil
		}
		state[rp.importPath] = 1
		for _, dep := range rp.localImports(modPath) {
			if d := byPath[dep]; d != nil && d != rp {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[rp.importPath] = 2
		order = append(order, rp)
		return nil
	}
	for _, rp := range raws {
		if err := visit(rp); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-local packages from the loaded set
// and defers to the source importer for the rest.
type moduleImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := im.local[path]; ok {
		return p, nil
	}
	// An external test package imports its own base package.
	if p, ok := im.local[strings.TrimSuffix(path, "_test")]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// newInfo allocates the types.Info maps the checks rely on.
func newInfo() *types.Info {
	return &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}
}

// typeCheck runs the type checker over one parsed package.
func typeCheck(fset *token.FileSet, rp *rawPkg, imp types.Importer) (*Pkg, error) {
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	info := newInfo()
	tpkg, _ := conf.Check(rp.importPath, fset, rp.files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("analysis: type errors in %s: %v", rp.importPath, errs[0])
	}
	return &Pkg{
		ImportPath: rp.importPath,
		Dir:        rp.dir,
		Name:       rp.name,
		Files:      rp.files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// CheckSource type-checks a single in-memory file as its own package —
// the harness the analyzer's own test corpus runs under.
func CheckSource(fset *token.FileSet, filename string, src any) (*Pkg, error) {
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	rp := &rawPkg{importPath: f.Name.Name, dir: filepath.Dir(filename), name: f.Name.Name, files: []*ast.File{f}}
	imp := &moduleImporter{
		local: map[string]*types.Package{},
		std:   importer.ForCompiler(fset, "source", nil),
	}
	return typeCheck(fset, rp, imp)
}
