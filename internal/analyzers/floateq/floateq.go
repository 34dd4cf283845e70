// Package floateq defines an analyzer flagging == and != comparisons
// between floating-point operands. In the HEBS code base float
// equality is almost always a latent bug: distortion percentages, β
// factors and MSE values come out of chains of float arithmetic where
// exact equality is meaningless (use an epsilon compare instead).
//
// Two idioms are deliberately exempt:
//
//   - comparison against the constant 0, the pervasive "option unset"
//     sentinel check on config fields (core.Options.MaxDistortionPercent
//     and friends), where the zero value is assigned exactly;
//   - self-comparison (x != x), the portable NaN test.
//
// Intentional sentinel comparisons against other constants (for
// example the PLC dynamic program's MaxFloat64 "unreached" marker) are
// silenced with a //hebslint:allow floateq directive.
package floateq

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"hebs/internal/analysis"
)

// Analyzer is the floateq check.
var Analyzer = &analysis.Analyzer{
	Name: "floateq",
	Doc:  "flag ==/!= comparisons on floating-point operands (use an epsilon compare); zero-sentinel and x!=x NaN checks are exempt",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass, be.X) || !isFloat(pass, be.Y) {
				return true
			}
			if isZeroConst(pass, be.X) || isZeroConst(pass, be.Y) {
				return true
			}
			if isSelfCompare(be) {
				return true
			}
			pass.Reportf(be.OpPos, "floating-point %s comparison; use an epsilon compare or allowlist a sentinel", be.Op)
			return true
		})
	}
	return nil
}

func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isZeroConst reports whether e is a compile-time constant equal to 0.
func isZeroConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

// isSelfCompare recognizes the x != x NaN-test idiom (and its == dual)
// by syntactic equality of the two operands.
func isSelfCompare(be *ast.BinaryExpr) bool {
	return types.ExprString(be.X) == types.ExprString(be.Y)
}
