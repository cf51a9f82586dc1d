package stair_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Packages kept under internal/ although no program imports them.
var unimportedOK = map[string]bool{
	"internal/store/devtest": true, // shared test support
}

// The environment variables a program may read. Anything else a
// program needs is a flag or a field, set by its caller.
var envOK = map[string]bool{
	"STAIR_GF_KERNEL": true,
	"STAIR_SOAK":      true,
}

// programFiles parses every non-test Go file of the module that is part
// of a program: bench/ is its own module, and examples/ only shows how
// the packages are used, so neither counts. The result maps each file's
// slash-separated path to its syntax tree.
func programFiles(t *testing.T) map[string]*ast.File {
	t.Helper()
	files := map[string]*ast.File{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata" || p == "bench" || p == "examples") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(p)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestEveryInternalPackageHasAnImporter: a package under internal/ that
// only its tests use is code no program runs.
func TestEveryInternalPackageHasAnImporter(t *testing.T) {
	files := programFiles(t)
	pkgs := map[string]bool{}
	imported := map[string]bool{}
	for p, f := range files {
		if dir := path.Dir(p); strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if rel, ok := strings.CutPrefix(ip, "stair/"); ok && rel != path.Dir(p) {
				imported[rel] = true
			}
		}
	}
	if !pkgs["internal/core"] {
		t.Fatalf("found no package under internal/ (%d files parsed); run from the module root", len(files))
	}
	var orphans []string
	for pkg := range pkgs {
		if !imported[pkg] && !unimportedOK[pkg] {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	for _, pkg := range orphans {
		t.Errorf("%s has no importer outside tests and examples: delete it, or give it a caller", pkg)
	}
}

// TestEnvReads: programs read only the environment variables in envOK,
// each by a literal name.
func TestEnvReads(t *testing.T) {
	reads := 0
	for p, f := range programFiles(t) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "os" {
				return true
			}
			switch sel.Sel.Name {
			case "Getenv", "LookupEnv":
			case "Environ", "ExpandEnv":
				t.Errorf("%s: os.%s: programs read named variables only", p, sel.Sel.Name)
				return true
			default:
				return true
			}
			reads++
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: os.%s of a name that is not a literal", p, sel.Sel.Name)
			} else if name, _ := strconv.Unquote(lit.Value); !envOK[name] {
				t.Errorf("%s: reads %s; programs read only STAIR_GF_KERNEL and STAIR_SOAK", p, name)
			}
			return true
		})
	}
	if reads == 0 {
		t.Fatal("found no environment read at all; run from the module root")
	}
}
