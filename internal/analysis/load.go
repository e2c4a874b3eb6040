package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked package, the unit every
// analyzer operates on.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	// Files holds the parsed non-test files, sorted by file name so
	// analyzer output order is deterministic.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checking problems. Analyzers run on
	// best-effort information; the driver surfaces these separately.
	TypeErrors []error

	directives map[string]map[string]map[int]bool
}

// Loader parses and type-checks packages from disk without the go
// toolchain's package driver, so it works on the module's own packages
// and on testdata fixtures alike. Standard-library imports are
// type-checked from $GOROOT source (network-free); module-local
// imports resolve recursively through the loader itself.
type Loader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*Package

	moduleRoot string
	modulePath string
}

// NewLoader returns an empty loader.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	l := &Loader{fset: fset, pkgs: make(map[string]*Package)}
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		// The source importer has implemented ImporterFrom since it
		// exists; this is unreachable on any supported toolchain.
		panic("analysis: source importer is not an ImporterFrom")
	}
	l.std = std
	return l
}

// SetModule teaches the loader to resolve imports under path (e.g.
// "barbican") against the package directories below root.
func (l *Loader) SetModule(root, path string) {
	l.moduleRoot = root
	l.modulePath = path
}

// Load parses and type-checks the package in dir under the given
// import path, memoizing by import path.
func (l *Loader) Load(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %q", importPath)
		}
		return pkg, nil
	}
	l.pkgs[importPath] = nil // cycle marker
	pkg, err := l.load(dir, importPath)
	if err != nil {
		delete(l.pkgs, importPath)
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

func (l *Loader) load(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// Honor build constraints as the compiler does in a default
		// build, so tag-selected variants (e.g. framepoison) do not
		// collide.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	pkg := &Package{ImportPath: importPath, Dir: dir, Fset: l.fset}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}

	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: &loaderImporter{l: l},
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns the package even when errors were collected; the
	// analyzers run on whatever information survived.
	tpkg, _ := conf.Check(importPath, l.fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	pkg.directives = collectDirectives(l.fset, pkg.Files)
	return pkg, nil
}

// ModulePath reads the module declaration from root's go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", root)
}

// LoadModule parses and type-checks every package under root (the
// directory holding go.mod), skipping testdata, hidden, and vendor
// trees, and returns them sorted by import path.
func (l *Loader) LoadModule(root string) ([]*Package, error) {
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	root, err = filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l.SetModule(root, modPath)

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.Load(dir, importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// hasGoFiles reports whether dir directly contains non-test Go files.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

// loaderImporter routes module-local import paths to the loader and
// everything else to the standard-library source importer.
type loaderImporter struct {
	l *Loader
}

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := li.l
	if l.modulePath != "" && (path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")) {
		sub := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		pkg, err := l.Load(filepath.Join(l.moduleRoot, filepath.FromSlash(sub)), path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: %s failed to type-check", path)
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
