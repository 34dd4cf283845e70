package hebs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path prefix of every package in this module
// (bench/ imports it through a replace directive, so it is the same there).
const modulePath = "hebs"

// stdlibInterfaceMethods are method names that satisfy a standard-library
// interface (error, fmt.Stringer, http.Handler, io.Writer, sort.Interface,
// json.Marshaler, go/types.Importer). Their callers live in the standard
// library, so a scan of this repository cannot see them.
var stdlibInterfaceMethods = map[string]bool{
	"Error":       true,
	"Import":      true,
	"String":      true,
	"ServeHTTP":   true,
	"Write":       true,
	"Len":         true,
	"Less":        true,
	"Swap":        true,
	"MarshalJSON": true,
}

// keptExports are exported names that no non-test code calls but that stay
// on purpose. Keys are "<dir>.<Func>" or "<dir>.<Type>.<Method>".
var keptExports = map[string]string{
	"internal/histogram.Histogram.Percentile": "percentile cut points for the saturation baselines; kept beside CDF as the histogram's query API",
	"internal/histogram.Uniform":              "Eq. 4's uniform target; the oracle TestSolveFlattensHistogram measures GHE against",
	"internal/histogram.L1CDFDistance":        "Eq. 4's objective; the oracle TestSolveFlattensHistogram measures GHE against",
	"internal/chart.MinRangeExact":            "the reference for core's minRangeExact; the range-search contract test compares the two",
	"internal/sipi.Names":                     "the suite's canonical image order",
	"internal/core.Engine.PoolStats":          "the pool accounting that the leak checks read through PoolStats.InUse",
	"internal/core.PoolStats.InUse":           "the buffer-leak gate the engine and video tests assert after every run",
	"internal/analysis/analysistest.Run":      "the analyzer test harness; its callers are the analyzers' tests by design",
	"internal/noalloc.ScanDir":                "the escape-analysis gate's self-test API",
}

// exportDecl is one exported top-level name declared in a non-test file
// under internal/: a func, a method, a type, a const or a var.
type exportDecl struct {
	dir, name, recv string // recv is "" for a plain func
	pos             token.Position
}

func (d exportDecl) key() string {
	if d.recv == "" {
		return d.dir + "." + d.name
	}
	return d.dir + "." + d.recv + "." + d.name
}

// refs is every way a non-test file names a declaration.
type refs struct {
	local     map[string]bool // "<dir>.<Name>": bare identifier inside its own package
	qualified map[string]bool // "<import path>.<Name>": pkg.Name from another package
	selected  map[string]bool // "<Name>": x.Name on a value or type, or an interface method
}

// TestNoDeadExports fails for any exported func, method, type, const or
// var declared at top level in a non-test file under internal/ that no
// non-test file of the repository (internal/, cmd/, examples/, bench/
// and analyzer testdata fixtures) refers to. Code reached only from its
// own tests is work nothing runs; delete it, or list it in keptExports
// with the reason it stays.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportDecl
	r := refs{local: map[string]bool{}, qualified: map[string]bool{}, selected: map[string]bool{}}

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
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
		declared := strings.HasPrefix(dir, "internal/") && !strings.Contains("/"+dir+"/", "/testdata/")
		for _, dcl := range f.Decls {
			if !declared {
				break
			}
			switch dcl := dcl.(type) {
			case *ast.FuncDecl:
				if dcl.Name.IsExported() {
					decls = append(decls, exportDecl{dir: dir, name: dcl.Name.Name, recv: recvName(dcl), pos: fset.Position(dcl.Pos())})
				}
			case *ast.GenDecl:
				for _, id := range specNames(dcl) {
					if id.IsExported() {
						decls = append(decls, exportDecl{dir: dir, name: id.Name, pos: fset.Position(id.Pos())})
					}
				}
			}
		}
		collectRefs(f, dir, &r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/; is the test running from the module root?")
	}

	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key()] = true
		var called bool
		if d.recv != "" {
			called = stdlibInterfaceMethods[d.name] || r.selected[d.name]
		} else {
			called = r.local[d.dir+"."+d.name] || r.qualified[modulePath+"/"+d.dir+"."+d.name]
		}
		_, kept := keptExports[d.key()]
		switch {
		case called && kept:
			t.Errorf("%s: %s is in keptExports but has a caller; drop the entry", d.pos, d.key())
		case !called && !kept:
			t.Errorf("%s: %s has no reference outside tests", d.pos, d.key())
		}
	}
	for k := range keptExports {
		if !seen[k] {
			t.Errorf("keptExports names %s, which is not declared; drop the entry", k)
		}
	}
}

// recvName is the receiver's base type name, or "" for a plain func.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	e := fd.Recv.List[0].Type
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// specNames lists the names a type, const or var declaration declares.
func specNames(gd *ast.GenDecl) []*ast.Ident {
	var names []*ast.Ident
	for _, spec := range gd.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			names = append(names, s.Name)
		case *ast.ValueSpec:
			names = append(names, s.Names...)
		}
	}
	return names
}

// collectRefs records every reference f makes to a declaration. A
// declaration's own name is not a reference, and neither is a recursive
// call from inside its own body.
func collectRefs(f *ast.File, dir string, r *refs) {
	imports := map[string]string{}
	for _, s := range f.Imports {
		p, err := strconv.Unquote(s.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(p)
		if s.Name != nil {
			name = s.Name.Name
		}
		imports[name] = p
	}
	var self *ast.FuncDecl
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			self = x
			if x.Recv != nil {
				ast.Inspect(x.Recv, visit)
			}
			ast.Inspect(x.Type, visit)
			if x.Body != nil {
				ast.Inspect(x.Body, visit)
			}
			self = nil
			return false
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if p, ok := imports[id.Name]; ok {
					r.qualified[p+"."+x.Sel.Name] = true
					return false
				}
			}
			if self == nil || self.Recv == nil || self.Name.Name != x.Sel.Name {
				r.selected[x.Sel.Name] = true
			}
			ast.Inspect(x.X, visit)
			return false
		case *ast.TypeSpec:
			if x.TypeParams != nil {
				ast.Inspect(x.TypeParams, visit)
			}
			ast.Inspect(x.Type, visit)
			return false
		case *ast.ValueSpec:
			if x.Type != nil {
				ast.Inspect(x.Type, visit)
			}
			for _, v := range x.Values {
				ast.Inspect(v, visit)
			}
			return false
		case *ast.InterfaceType:
			for _, m := range x.Methods.List {
				for _, name := range m.Names {
					r.selected[name.Name] = true
				}
			}
		case *ast.Ident:
			if self == nil || self.Recv != nil || self.Name.Name != x.Name {
				r.local[dir+"."+x.Name] = true
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}
