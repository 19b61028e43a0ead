package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis, everything a rule needs to reason syntactically and
// semantically at once. TestFiles holds the package's _test.go files
// parsed without type information: the failpoint-coverage analyzer scans
// them for chaos schedules, and nothing else should rely on them being
// semantically resolved.
type Package struct {
	Path      string // import path, e.g. tdb/internal/core
	RelDir    string // module-relative directory with "/" separators; "" for the root
	Dir       string // absolute directory
	Root      string // module root directory (shared by every package of a run)
	Fset      *token.FileSet
	Files     []*ast.File
	TestFiles []*ast.File // parse-only; no entries in Types/Info
	Types     *types.Package
	Info      *types.Info
}

// Loader loads and type-checks every package of a module using only the
// standard library: module packages are parsed from source and checked
// on demand in dependency order, and imports outside the module are
// satisfied by the stdlib source importer (the repo is offline and
// dependency-free, so no export data or golang.org/x/tools is needed).
type Loader struct {
	fset    *token.FileSet
	root    string // module root directory (contains go.mod)
	modpath string
	std     types.Importer
	pkgs    map[string]*Package // keyed by RelDir
	loading map[string]bool     // RelDirs currently being checked (cycle guard)
}

// NewLoader prepares a loader for the module rooted at or above dir.
func NewLoader(dir string) (*Loader, error) {
	root, modpath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		root:    root,
		modpath: modpath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// findModule walks upward from dir to the nearest go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modpath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found at or above %s", abs)
		}
	}
}

// LoadAll loads every package of the module, in deterministic order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var rels []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if goSource(e.Name()) {
				rel, err := filepath.Rel(l.root, path)
				if err != nil {
					return err
				}
				rels = append(rels, filepath.ToSlash(rel))
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(rels)
	pkgs := make([]*Package, 0, len(rels))
	for _, rel := range rels {
		p, err := l.load(rel)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func goSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// load parses and type-checks the package in the given module-relative
// directory, memoized.
func (l *Loader) load(rel string) (*Package, error) {
	if rel == "." {
		rel = ""
	}
	if p, ok := l.pkgs[rel]; ok {
		return p, nil
	}
	if l.loading[rel] {
		return nil, fmt.Errorf("lint: import cycle through %q", rel)
	}
	l.loading[rel] = true
	defer delete(l.loading, rel)

	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files, testFiles []*ast.File
	pkgName := ""
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, "_test.go") {
			// Test files are parsed for their syntax only: they may belong
			// to the external foo_test package and import anything, so they
			// never enter the type-checked file set.
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			testFiles = append(testFiles, f)
			continue
		}
		if !goSource(name) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("lint: %s: mixed packages %s and %s", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: %s: no non-test Go files", dir)
	}

	path := l.modpath
	if rel != "" {
		path = l.modpath + "/" + rel
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: moduleImporter{l}}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{
		Path:      path,
		RelDir:    rel,
		Dir:       dir,
		Root:      l.root,
		Fset:      l.fset,
		Files:     files,
		TestFiles: testFiles,
		Types:     tpkg,
		Info:      info,
	}
	l.pkgs[rel] = p
	return p, nil
}

// moduleImporter resolves module-internal imports through the loader and
// everything else through the stdlib source importer.
type moduleImporter struct{ l *Loader }

func (m moduleImporter) Import(path string) (*types.Package, error) {
	l := m.l
	if path == l.modpath || strings.HasPrefix(path, l.modpath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modpath), "/")
		p, err := l.load(rel)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
