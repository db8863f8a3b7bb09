// Package load turns Go packages into type-checked syntax for the
// vfpgavet analyzers using nothing beyond the standard library and the
// go command. It shells out once to `go list -export -deps`, which
// compiles every requested package (entirely offline, against the build
// cache) and reports the export-data file of each dependency; target
// packages are then parsed from source and type-checked with the
// standard gc importer reading that export data. This is the same
// division of labour as golang.org/x/tools/go/packages, scoped down to
// what a single-module analysis driver needs.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// ImportPath is the package's import path, without any test-variant
	// suffix ("repro/internal/fault", never "repro/internal/fault [...]").
	ImportPath string
	Dir        string
	// Test marks a test variant: the package was compiled with its
	// in-package _test.go files included.
	Test bool

	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Options configures a Load call.
type Options struct {
	// Dir is the directory go list runs in (the module root). Empty
	// means the current directory.
	Dir string
	// Tests includes in-package and external test variants of the
	// matched packages.
	Tests bool
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	ForTest    string
	ImportMap  map[string]string
}

// Index resolves import paths to export data for one `go list` run. It
// also exposes CheckDir so fixture harnesses can type-check source
// directories that are not part of the module's package graph (testdata
// fixtures) against the module's real packages.
type Index struct {
	Fset    *token.FileSet
	exports map[string]string
	base    types.Importer
}

// Load lists patterns (plus any extra std packages fixtures may need),
// compiles them for export data, and type-checks every matched
// non-standard package from source. It returns the shared Index and the
// checked packages in go list order.
func Load(opts Options, patterns ...string) (*Index, []*Package, error) {
	args := []string{"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Standard,DepOnly,ForTest,ImportMap"}
	if opts.Tests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = opts.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("load: go list: %w\n%s", err, stderr.String())
	}

	var entries []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		entries = append(entries, &p)
	}

	ix := &Index{Fset: token.NewFileSet(), exports: map[string]string{}}
	for _, e := range entries {
		if e.Export != "" {
			ix.exports[e.ImportPath] = e.Export
		}
	}
	ix.base = ix.newImporter()

	// When a test variant of a package is listed, it strictly extends the
	// plain one (same files plus _test.go), so analyzing both would
	// duplicate every diagnostic in the shared files.
	hasVariant := map[string]bool{}
	for _, e := range entries {
		if e.ForTest != "" && basePath(e.ImportPath) == e.ForTest {
			hasVariant[e.ForTest] = true
		}
	}

	var pkgs []*Package
	for _, e := range entries {
		switch {
		case e.DepOnly, e.Standard, len(e.GoFiles) == 0:
			continue
		case strings.HasSuffix(e.ImportPath, ".test") && e.Name == "main":
			continue // generated test-main package
		case e.ForTest == "" && hasVariant[e.ImportPath]:
			continue // superseded by its test variant
		}
		pkg, err := ix.check(e)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return ix, pkgs, nil
}

// newImporter returns a gc importer over the index's export data. An
// importer caches packages by package path, so one that has read a plain
// package cannot also read its test variant.
func (ix *Index) newImporter() types.Importer {
	return importer.ForCompiler(ix.Fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := ix.exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// basePath strips a test-variant suffix: "p [p.test]" -> "p".
func basePath(importPath string) string {
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

func (ix *Index) check(e *listPackage) (*Package, error) {
	files, err := ix.parse(e.Dir, e.GoFiles)
	if err != nil {
		return nil, err
	}
	path := basePath(e.ImportPath)
	pkg, info, err := ix.typeCheck(path, files, e.ImportMap)
	if err != nil {
		return nil, err
	}
	return &Package{
		ImportPath: path,
		Dir:        e.Dir,
		Test:       e.ForTest != "" || strings.HasSuffix(path, "_test"),
		Fset:       ix.Fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}, nil
}

// CheckDir parses every non-test .go file in dir as a single package and
// type-checks it under the given import path (which controls how
// path-scoped analyzers see the package). The fixture harness uses this
// for testdata packages, which may import any package the Index was
// loaded with.
func (ix *Index) CheckDir(dir, asPath string) (*Package, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	var names []string
	for _, de := range des {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".go") && !strings.HasSuffix(de.Name(), "_test.go") {
			names = append(names, de.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("load: no .go files in %s", dir)
	}
	files, err := ix.parse(dir, names)
	if err != nil {
		return nil, err
	}
	pkg, info, err := ix.typeCheck(asPath, files, nil)
	if err != nil {
		return nil, err
	}
	return &Package{ImportPath: asPath, Dir: dir, Fset: ix.Fset, Files: files, Pkg: pkg, Info: info}, nil
}

func (ix *Index) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ix.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

func (ix *Index) typeCheck(path string, files []*ast.File, importMap map[string]string) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	// A package whose imports map to test variants — an external test
	// package, whose package under test may export more in its
	// export_test.go — reads them through an importer of its own.
	base := ix.base
	for _, to := range importMap {
		if strings.Contains(to, " [") {
			base = ix.newImporter()
			break
		}
	}
	conf := types.Config{
		Importer: &mappedImporter{base: base, m: importMap},
	}
	pkg, err := conf.Check(path, ix.Fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("load: type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}

// mappedImporter applies one package's ImportMap (test-variant and
// vendor rewrites) before consulting the shared export index.
type mappedImporter struct {
	base types.Importer
	m    map[string]string
}

func (mi *mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := mi.m[path]; ok {
		path = mapped
	}
	return mi.base.Import(path)
}
