// Package noalloc is the library behind cmd/hebsvet: a mechanized
// allocation proof for annotated hot-path functions. A function whose
// doc comment carries the directive
//
//	//hebs:noalloc
//
// is claimed to perform no heap allocation on any path through its
// body. The claim is checked against the compiler itself: the gate
// runs `go build -gcflags=-m` over every package holding annotations
// and parses the escape-analysis diagnostics ("X escapes to heap",
// "moved to heap: x"). Any such diagnostic positioned inside an
// annotated function's body is a finding, with file:line provenance
// straight from the compiler. Because gc attributes allocations from
// inlined callees to the call site's line, the proof extends through
// the inlined portion of the call tree for free.
//
// Known, deliberate allocations inside an annotated function (a cold
// error path, a goroutine fan-out that the serial hot path never
// takes) are excused line by line:
//
//	//hebs:noalloc-allow <reason>
//
// on the allocating line or the line immediately above. The reason is
// mandatory — a bare noalloc-allow is a scan error, so every excuse
// in the tree is documented at the site it excuses.
package noalloc

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Directive spellings. The hebs: prefix namespace matches the
// hebslint:allow convention from internal/analysis.
const (
	directive      = "//hebs:noalloc"
	allowDirective = "//hebs:noalloc-allow"
)

// Annotation is one //hebs:noalloc-marked function.
type Annotation struct {
	// PkgDir is the package directory relative to the module root
	// ("internal/gray"); "." for the root package.
	PkgDir string
	// Func is the display name: "ApplyLUTPacked" or
	// "(*FrameDelta).Update" for methods.
	Func string
	// File is the source file relative to the module root.
	File string
	// Line is the func keyword's line; BodyEnd the closing brace's.
	// Escape diagnostics inside [Line, BodyEnd] count against the
	// annotation.
	Line, BodyEnd int
}

// Allow is one //hebs:noalloc-allow directive.
type Allow struct {
	// File is relative to the module root; the directive covers
	// diagnostics on Line and Line+1 (comment-above idiom).
	File   string
	Line   int
	Reason string
}

// Inventory is the module's annotation census — the `hebsvet -list`
// payload and the input to the gate.
type Inventory struct {
	Root        string
	Annotations []Annotation
	Allows      []Allow
}

// Scan walks the module rooted at root (the directory holding go.mod)
// and collects every noalloc annotation and allow directive from
// non-test files selected by the default build context. Directories
// named testdata, hidden and underscore-prefixed directories are
// skipped, matching the go tool. A malformed directive (noalloc not
// attached to a function declaration, noalloc-allow without a reason)
// is an error, not a silent skip: the annotation grammar is part of
// the proof.
func Scan(root string) (*Inventory, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	inv := &Inventory{Root: abs}
	for _, dir := range dirs {
		if err := scanDir(inv, abs, dir); err != nil {
			return nil, err
		}
	}
	return inv, nil
}

// ScanDir scans a single package directory (which may live under
// testdata — the self-test fixture does) into a fresh inventory.
func ScanDir(root, dir string) (*Inventory, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	inv := &Inventory{Root: abs}
	if err := scanDir(inv, abs, absDir); err != nil {
		return nil, err
	}
	return inv, nil
}

func scanDir(inv *Inventory, root, dir string) error {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		return fmt.Errorf("noalloc: %s: %w", dir, err)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	for _, name := range bp.GoFiles {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		relFile := filepath.ToSlash(filepath.Join(rel, name))
		if rel == "." {
			relFile = name
		}
		if err := scanFile(inv, fset, f, filepath.ToSlash(rel), relFile); err != nil {
			return err
		}
	}
	return nil
}

// scanFile extracts this file's annotations and allow directives.
func scanFile(inv *Inventory, fset *token.FileSet, f *ast.File, pkgDir, relFile string) error {
	// Index every noalloc directive comment by line so unattached ones
	// can be diagnosed after the declaration walk consumes the rest.
	pending := make(map[int]token.Pos) // line -> directive position
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			switch {
			case text == directive || strings.HasPrefix(text, directive+" "):
				pending[fset.Position(c.Pos()).Line] = c.Pos()
			case text == allowDirective:
				pos := fset.Position(c.Pos())
				return fmt.Errorf("noalloc: %s:%d: %s requires a reason", relFile, pos.Line, allowDirective)
			case strings.HasPrefix(text, allowDirective+" "):
				reason := strings.TrimSpace(strings.TrimPrefix(text, allowDirective))
				if reason == "" {
					pos := fset.Position(c.Pos())
					return fmt.Errorf("noalloc: %s:%d: %s requires a reason", relFile, pos.Line, allowDirective)
				}
				pos := fset.Position(c.Pos())
				inv.Allows = append(inv.Allows, Allow{File: relFile, Line: pos.Line, Reason: reason})
			}
		}
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		annotated := false
		for _, c := range fd.Doc.List {
			text := strings.TrimSpace(c.Text)
			if text == directive || strings.HasPrefix(text, directive+" ") {
				annotated = true
				delete(pending, fset.Position(c.Pos()).Line)
			}
		}
		if !annotated {
			continue
		}
		if fd.Body == nil {
			pos := fset.Position(fd.Pos())
			return fmt.Errorf("noalloc: %s:%d: %s on a bodyless declaration", relFile, pos.Line, directive)
		}
		inv.Annotations = append(inv.Annotations, Annotation{
			PkgDir:  pkgDir,
			Func:    funcDisplayName(fd),
			File:    relFile,
			Line:    fset.Position(fd.Pos()).Line,
			BodyEnd: fset.Position(fd.Body.End()).Line,
		})
	}
	for line := range pending {
		return fmt.Errorf("noalloc: %s:%d: %s is not attached to a function declaration (it must sit in the func's doc comment)", relFile, line, directive)
	}
	return nil
}

// funcDisplayName renders "Name" or "(Recv).Name"/"(*Recv).Name".
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := typeString(fd.Recv.List[0].Type)
	return "(" + recv + ")." + fd.Name.Name
}

func typeString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeString(t.X)
	case *ast.IndexExpr: // generic receiver
		return typeString(t.X)
	case *ast.IndexListExpr:
		return typeString(t.X)
	}
	return "?"
}

// Packages returns the sorted set of package directories (relative to
// the root) holding at least one annotation.
func (inv *Inventory) Packages() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range inv.Annotations {
		if !seen[a.PkgDir] {
			seen[a.PkgDir] = true
			out = append(out, a.PkgDir)
		}
	}
	sort.Strings(out)
	return out
}

// WriteList renders the `hebsvet -list` inventory: one line per
// annotation in scan order, then the allow directives. The alloc-guard
// tests print the same rendering when a bare allocs/op count regresses,
// so a failure names the annotated functions to re-check rather than
// just a number; keep the format grep-friendly.
func (inv *Inventory) WriteList(w io.Writer) {
	fmt.Fprintf(w, "# %d //hebs:noalloc function(s) in %d package(s)\n",
		len(inv.Annotations), len(inv.Packages()))
	for _, a := range inv.Annotations {
		fmt.Fprintf(w, "%-28s %-34s %s:%d\n", a.PkgDir, a.Func, a.File, a.Line)
	}
	if len(inv.Allows) > 0 {
		fmt.Fprintf(w, "# %d //hebs:noalloc-allow directive(s)\n", len(inv.Allows))
		for _, al := range inv.Allows {
			fmt.Fprintf(w, "%s:%d: %s\n", al.File, al.Line, al.Reason)
		}
	}
}

// allowedAt reports whether an allow directive covers file:line (same
// line or the line above), returning its reason.
func (inv *Inventory) allowedAt(file string, line int) (string, bool) {
	for _, a := range inv.Allows {
		if a.File == file && (a.Line == line || a.Line == line-1) {
			return a.Reason, true
		}
	}
	return "", false
}

// covering returns the annotation whose body span contains file:line.
func (inv *Inventory) covering(file string, line int) *Annotation {
	for i := range inv.Annotations {
		a := &inv.Annotations[i]
		if a.File == file && line >= a.Line && line <= a.BodyEnd {
			return a
		}
	}
	return nil
}
