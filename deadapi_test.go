package kshot

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportAllow names the exported identifiers under internal/ that
// no non-test code references but that stay on purpose, each with its
// reason. Keys are "dir.Name" for package-level names and
// "dir.Recv.Name" for methods, dir being the package's directory.
var deadExportAllow = map[string]string{
	"internal/faultinject.Injected.Unwrap":   "errors.Is/As call it through the Unwrap interface",
	"internal/isa.ExecError.Unwrap":          "errors.Is/As call it through the Unwrap interface",
	"internal/orchestrator.HaltError.Unwrap": "errors.Is/As call it through the Unwrap interface",
	"internal/timing.FakeWall.Slept":         "test double shared by several packages' tests",
	"internal/faultinject.Set.Calls":         "test double shared by several packages' tests",
	"internal/faultinject.Set.Fired":         "test double shared by several packages' tests",
	"internal/faultinject.Set.Log":           "test double shared by several packages' tests",
	"internal/adversary.NewSim":              "adversary campaign harness; CI's adversary-smoke job runs it",
	"internal/adversary.NewPlan":             "adversary campaign harness; CI's adversary-smoke job runs it",
	"internal/adversary.Outcome.SilentWin":   "adversary campaign harness; CI's adversary-smoke job runs it",
	"internal/core.System.WatchKernelText":   "only entry to the §V-D kernel-text watch on the re-exported kshot.System",
	"internal/machine.VCPU.EngineStats":      "block-engine probe shared by several packages' tests",
}

// TestNoDeadInternalExports fails when an exported identifier declared
// under internal/ has no reference from non-test code anywhere in the
// repo (cmd/, examples/ and benchmark/ included), so production
// packages carry no API that only tests call. A package-level name is
// referenced by pkg.Name through an import of its package, or by a
// bare Name inside its own package. A method counts as referenced by
// any .Name selector whose operand is not an imported package, except
// that where Name is also a struct field name in the module only a
// call X.Name(…) counts, so a field access does not keep a same-named
// method alive. Struct fields and interface methods are not checked.
func TestNoDeadInternalExports(t *testing.T) {
	module := modulePath(t, "go.mod")
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // non-test files by directory
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
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type decl struct {
		key    string // dir.Name or dir.Recv.Name
		method string // method name, empty for a package-level name
		pos    token.Pos
	}
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	fieldNames := map[string]bool{} // struct field names, embedded ones included
	for dir, pkgFiles := range files {
		internal := strings.HasPrefix(dir, "internal/")
		for _, f := range pkgFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				if st, ok := n.(*ast.StructType); ok {
					for _, fl := range st.Fields.List {
						for _, n := range fl.Names {
							fieldNames[n.Name] = true
						}
						if len(fl.Names) == 0 {
							fieldNames[recvName(fl.Type)] = true
						}
					}
				}
				return true
			})
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declIdents[d.Name] = true
					if !internal || !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						decls = append(decls, decl{dir + "." + d.Name.Name, "", d.Name.Pos()})
						continue
					}
					decls = append(decls, decl{dir + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name, d.Name.Name, d.Name.Pos()})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							declIdents[n] = true
							if internal && n.IsExported() {
								decls = append(decls, decl{dir + "." + n.Name, "", n.Pos()})
							}
						}
					}
				}
			}
		}
	}

	refs := map[string]bool{}     // dir.Name
	selected := map[string]bool{} // any .Name selector, for methods
	called := map[string]bool{}   // any X.Name(…) call, for methods named like a field
	for dir, pkgFiles := range files {
		for _, f := range pkgFiles {
			imports := map[string]string{} // local name -> directory
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				if !strings.HasPrefix(p, module+"/") {
					continue
				}
				target := strings.TrimPrefix(p, module+"/")
				name := path.Base(target)
				if tf := files[target]; len(tf) > 0 {
					name = tf[0].Name.Name
				}
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = target
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						called[sel.Sel.Name] = true
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if target, ok := imports[x.Name]; ok {
							refs[target+"."+n.Sel.Name] = true
							return false
						}
					}
					selected[n.Sel.Name] = true
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if !declIdents[n] {
						refs[dir+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(f, visit)
		}
	}

	sort.Slice(decls, func(i, j int) bool { return decls[i].pos < decls[j].pos })
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		live := refs[d.key]
		if d.method != "" {
			live = selected[d.method]
			if fieldNames[d.method] {
				live = called[d.method]
			}
		}
		_, allowed := deadExportAllow[d.key]
		switch {
		case live && allowed:
			t.Errorf("%s: %s is allowlisted but has a non-test reference; drop it from deadExportAllow", fset.Position(d.pos), d.key)
		case !live && !allowed:
			t.Errorf("%s: %s has no non-test reference; delete it, move it into a _test.go file, or allowlist it with a reason", fset.Position(d.pos), d.key)
		}
	}
	for key, reason := range deadExportAllow {
		if !declared[key] {
			t.Errorf("deadExportAllow names %s, which is not declared", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("deadExportAllow entry %s has no reason", key)
		}
	}
}

// modulePath reads the module line of a go.mod file.
func modulePath(t *testing.T, gomod string) string {
	f, err := os.Open(gomod)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(m)
		}
	}
	t.Fatalf("%s has no module line", gomod)
	return ""
}

// recvName is the type name of a method receiver, without pointer or
// type parameters.
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
