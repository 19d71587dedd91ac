// Package analysis is a stdlib-only static-analysis framework for this
// module, plus the project-specific analyzers that encode the invariants the
// codebase lives by: deterministic simulation (detrange, wallclock),
// journal-ahead-of-apply durability (journalfirst), pooled zero-copy frame
// lifetimes (viewescape), the pod-side privacy boundary (privacyboundary),
// and lock hygiene (lockdiscipline).
//
// The framework deliberately avoids golang.org/x/tools: packages are loaded
// with go/parser, type-checked with go/types, and stdlib dependencies are
// resolved by the go/importer source importer, so go.mod stays
// dependency-free. The driver lives in cmd/repolint.
//
// Findings are position-accurate and suppressible in place:
//
//	//lint:allow <check> <reason>
//
// on the offending line, or the line directly above it, silences that check
// there. A reason is mandatory — an allow without one is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one invariant checker. Run is invoked once per loaded package
// and reports findings through the Pass.
type Analyzer struct {
	// Name is the check name used in diagnostics and //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one package.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Module   *Module
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Check   string         `json:"check"`
	Pos     token.Position `json:"-"`
	Message string         `json:"message"`

	// File/Line/Col mirror Pos for JSON output.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Message)
}

// --- shared type-resolution helpers ---

// pathMatches reports whether a package path is the target or ends in
// "/"+target. Invariant configuration names packages by module-relative
// suffix ("internal/trace") so the same analyzers run unchanged over the
// real module and over test fixtures with a different module path.
func pathMatches(path, target string) bool {
	return path == target || strings.HasSuffix(path, "/"+target)
}

// pkgMatches reports whether the types package matches a target suffix.
func pkgMatches(pkg *types.Package, target string) bool {
	return pkg != nil && pathMatches(pkg.Path(), target)
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// typeIsNamed reports whether t (possibly behind pointers) is the named type
// pkgSuffix.name.
func typeIsNamed(t types.Type, pkgSuffix, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && pkgMatches(obj.Pkg(), pkgSuffix)
}

// calleeFunc resolves a call expression to the function or method object it
// statically invokes, or nil for indirect calls and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}

// recvNamed returns the named type of a method's receiver, or nil for plain
// functions.
func recvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// identObj resolves an expression to the object of the identifier it names
// (unwrapping parens), or nil if the expression is not a plain identifier.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(id)
}

// enclosingFuncs walks every function declaration and literal in file,
// calling fn with the declaration whose body is being inspected. Function
// literals are attributed to their enclosing declaration.
func enclosingFuncs(file *ast.File, fn func(decl *ast.FuncDecl)) {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			fn(fd)
		}
	}
}

// funcName renders a declaration's name, with its receiver type when present
// ("(*Hive).ingestView" style is overkill for messages; "ingestView" reads
// better and names are unique enough within a package).
func funcName(fd *ast.FuncDecl) string {
	if fd == nil {
		return "package scope"
	}
	return fd.Name.Name
}

// exprString renders a (small) expression back to source, for lock identity
// and messages. Only identifiers and selector chains are expected.
func exprString(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	default:
		return "expr"
	}
}
