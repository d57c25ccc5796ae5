package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Whole-program type loader. Every analyzer of the suite runs on the
// Program built here, which uses only the standard library: go/parser
// for syntax, go/types for checking, and go/importer for the
// dependencies outside the module. Module-internal imports (<module>/...) are
// resolved by type-checking the imported directory recursively;
// everything else is satisfied by the compiler's export data when
// available, falling back to type-checking the dependency from GOROOT
// source, so the loader works on a bare toolchain with no installed
// package artifacts.

// Package is one type-checked package of the module.
type Package struct {
	// Path is the import path, e.g. "repro/internal/detect".
	Path string
	// Dir is the module-relative directory, e.g. "internal/detect".
	Dir string
	// Files holds every parsed .go file of the directory. Test files
	// are parsed, so their directives are honored and counted, but
	// excluded from type checking; TypedFiles lists the rest.
	Files []*File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the resolved type information for the typed files.
	Info *types.Info
}

// TypedFiles returns the package's non-test files, the ones covered by
// Info.
func (p *Package) TypedFiles() []*File {
	out := make([]*File, 0, len(p.Files))
	for _, f := range p.Files {
		if !f.IsTest {
			out = append(out, f)
		}
	}
	return out
}

// Program is the whole module, parsed and type-checked.
type Program struct {
	Fset *token.FileSet
	// Root is the absolute module root (directory of go.mod).
	Root string
	// ModulePath is the module's import path from go.mod.
	ModulePath string
	// Pkgs lists the module's packages sorted by import path.
	Pkgs []*Package

	byPath map[string]*Package
	cg     *CallGraph
}

// Package returns the module package with the given import path, or
// nil.
func (p *Program) Package(path string) *Package { return p.byPath[path] }

// loader carries the state of one LoadProgram run.
type loader struct {
	fset    *token.FileSet
	root    string
	module  string
	dirs    map[string]string // import path -> absolute dir
	pkgs    map[string]*Package
	loading map[string]bool
	gc      types.Importer
	source  types.Importer
	// external memoizes non-module imports across packages (the gc and
	// source importers each keep their own caches; this avoids even
	// asking twice).
	external map[string]*types.Package
}

// Import implements types.Importer: module-internal paths type-check
// their directory, everything else goes to the toolchain importers.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		return l.loadModulePkg(path)
	}
	if pkg, ok := l.external[path]; ok {
		return pkg, nil
	}
	pkg, err := l.gc.Import(path)
	if err != nil {
		// No export data installed (common on bare toolchains): fall
		// back to type-checking the dependency from GOROOT source.
		pkg, err = l.source.Import(path)
		if err != nil {
			return nil, fmt.Errorf("analysis: importing %s: %w", path, err)
		}
	}
	l.external[path] = pkg
	return pkg, nil
}

// loadModulePkg type-checks one module directory, memoized, resolving
// its module-internal imports recursively.
func (l *loader) loadModulePkg(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg.Types, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	dir, ok := l.dirs[path]
	if !ok {
		return nil, fmt.Errorf("analysis: no module package %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		rel = dir
	}
	pkg := &Package{Path: path, Dir: filepath.ToSlash(rel)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var typed []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		file := filepath.Join(dir, name)
		src, err := parser.ParseFile(l.fset, file, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		f := &File{Fset: l.fset, AST: src, Path: file, Pkg: pkg.Dir, IsTest: strings.HasSuffix(name, "_test.go")}
		pkg.Files = append(pkg.Files, f)
		// External test packages (package foo_test) cannot mix with the
		// package proper; they only occur in _test.go files, which are
		// not type-checked.
		if !f.IsTest {
			typed = append(typed, src)
		}
	}
	if len(typed) == 0 {
		return nil, fmt.Errorf("analysis: package %s has no non-test Go files", path)
	}
	tpkg, info, err := checkPackage(l.fset, path, typed, l)
	if err != nil {
		return nil, err
	}
	pkg.Types, pkg.Info = tpkg, info
	l.pkgs[path] = pkg
	return tpkg, nil
}

// checkPackage runs the types checker over one package's files.
func checkPackage(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return tpkg, info, nil
}

// LoadProgram parses and type-checks every package of the module
// rooted at root (the directory containing go.mod, or any directory
// beneath it). Test files are parsed but not type-checked; testdata
// and hidden directories are skipped.
func LoadProgram(root string) (*Program, error) {
	mod, err := ModuleRoot(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(mod)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:     fset,
		root:     mod,
		module:   module,
		dirs:     map[string]string{},
		pkgs:     map[string]*Package{},
		loading:  map[string]bool{},
		gc:       importer.ForCompiler(fset, "gc", nil),
		source:   importer.ForCompiler(fset, "source", nil),
		external: map[string]*types.Package{},
	}

	// Discover package directories: any non-testdata directory holding
	// at least one non-test .go file.
	err = filepath.WalkDir(mod, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == "testdata" || (strings.HasPrefix(name, ".") && path != mod) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(mod, path)
				if err != nil {
					return err
				}
				ip := module
				if rel != "." {
					ip = module + "/" + filepath.ToSlash(rel)
				}
				l.dirs[ip] = path
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	paths := make([]string, 0, len(l.dirs))
	for ip := range l.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := l.loadModulePkg(ip); err != nil {
			return nil, err
		}
	}

	prog := &Program{
		Fset:       fset,
		Root:       mod,
		ModulePath: module,
		byPath:     l.pkgs,
	}
	for _, ip := range paths {
		prog.Pkgs = append(prog.Pkgs, l.pkgs[ip])
	}
	return prog, nil
}

// modulePath reads the module directive from root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "module" {
			return strings.Trim(fields[1], "\""), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s/go.mod", root)
}
