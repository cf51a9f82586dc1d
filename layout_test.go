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

// exportsCallerless lists exported functions and methods under internal/
// that no program names, each with why it stays. Keys are
// "package-dir.Func" or "package-dir.Type.Method".
var exportsCallerless = map[string]string{
	"internal/rs.Code.EncodeSymbols":              "symbol-level reference that EncodeRegions is tested against",
	"internal/sd.Code.CoverageContains":           "the SD coverage definition that CanRecover is tested against",
	"internal/reliability.PstrRSClosed":           "Eq. 18, a closed form the general Pstr enumerator is tested against",
	"internal/reliability.PstrStairSClosed":       "Eq. 19, a closed form the general Pstr enumerator is tested against",
	"internal/reliability.PstrStair1Sm1Closed":    "Eq. 20, a closed form the general Pstr enumerator is tested against",
	"internal/reliability.PstrStair2Sm2Closed":    "Eq. 21, a closed form the general Pstr enumerator is tested against",
	"internal/reliability.PstrStair11Sm2Closed":   "Eq. 22, a closed form the general Pstr enumerator is tested against",
	"internal/reliability.PstrStairAllOnesClosed": "Eq. 23, a closed form the general Pstr enumerator is tested against",
	"internal/reliability.PstrSD1Closed":          "Eq. 24, a closed form the general Pstr enumerator is tested against",
	"internal/reliability.PstrSD2Closed":          "Eq. 25, a closed form the general Pstr enumerator is tested against",
	"internal/reliability.PstrSD3Closed":          "Eq. 26, a closed form the general Pstr enumerator is tested against",
	"internal/failures.FailRandomDevicesOn":       "§7.1.2's device-failure draw on a FaultTarget, run against a live store beside InjectRandomBurstsOn",
	"internal/store.SectorError.Unwrap":           "errors.Is and errors.As call it",
	"internal/store.SectorErrors.Unwrap":          "errors.Is and errors.As call it",
	"internal/store.repairHeap.Less":              "container/heap calls it through heap.Interface",
	"internal/store.Store.ReleaseBlock":           "ReadBlock's documented way to hand its pooled buffer back; the read benchmarks use it",
	"internal/store/journal.Journal.PendingCount": "the crash tests' check that recovery settled every intent",
}

// TestExportsHaveCallers: every exported func or method declared under
// internal/ is named somewhere other than its own declaration, in a
// program, an example or bench/. An export only tests call is surface
// to maintain that no program runs. internal/core is skipped: package
// stair re-exports its types, so it is public API. So is
// internal/store/devtest, which is test support.
func TestExportsHaveCallers(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	named := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		dir := path.Dir(filepath.ToSlash(p))
		own := map[*ast.Ident]bool{}
		for _, dcl := range f.Decls {
			fn, ok := dcl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(dir, "internal/") ||
				dir == "internal/core" || dir == "internal/store/devtest" {
				continue
			}
			key := dir + "." + fn.Name.Name
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					key = dir + "." + id.Name + "." + fn.Name.Name
				}
			}
			decls = append(decls, decl{key, fset.Position(fn.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declaration under internal/; run from the module root")
	}
	listed := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		_, ok := exportsCallerless[d.key]
		listed[d.key] = listed[d.key] || ok
		switch {
		case !named[name] && !ok:
			t.Errorf("%s: %s is named by no program, example or bench/: delete it, or say in exportsCallerless why it stays", d.pos, d.key)
		case named[name] && ok:
			t.Errorf("%s: %s has a caller now: drop it from exportsCallerless", d.pos, d.key)
		}
	}
	for key := range exportsCallerless {
		if !listed[key] {
			t.Errorf("exportsCallerless names %s, which is not declared", key)
		}
	}
}
