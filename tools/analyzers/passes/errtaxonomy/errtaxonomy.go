// Package errtaxonomy keeps the typed error taxonomy navigable: callers
// downstream of the facade rely on errors.Is/errors.As reaching the
// sentinel through arbitrary wrapping (DegradedError wrapping ErrWALBound
// wrapping an os.PathError, and so on), which breaks the moment a
// comparison uses == or a wrap drops to %v. The check flags:
//
//   - == / != between two error-typed operands (nil comparisons are fine;
//     use errors.Is for sentinels). The x == target comparison inside an
//     Is(error) bool method is the one standard idiom that must compare
//     identity, and is exempt;
//   - switch statements over an error value with error-typed case values;
//   - fmt.Errorf calls that format an error-typed argument with a verb
//     other than %w: the cause silently falls out of the Is/As chain.
//     Stringifying via err.Error() remains available as the explicit
//     opt-out where a boundary intentionally seals its cause;
//   - os.IsNotExist, os.IsExist and os.IsPermission: they inspect only the
//     error itself and a few os wrappers, not %w chains, so a wrapping FS
//     turns a benign condition into a failure. errors.Is with the io/fs
//     sentinels (fs.ErrNotExist, fs.ErrExist, fs.ErrPermission) unwraps.
package errtaxonomy

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/analyzers/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "errtaxonomy",
	Doc:  "sentinel comparisons and os error predicates must use errors.Is, and fmt.Errorf must wrap causes with %w",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			exemptIs := isIsMethod(pass.Info, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if exemptIs {
						return true
					}
					if n.Op == token.EQL || n.Op == token.NEQ {
						if isErrorExpr(pass.Info, n.X) && isErrorExpr(pass.Info, n.Y) {
							pass.Reportf(n.Pos(), "error values compared with %s miss wrapped sentinels; use errors.Is", n.Op)
						}
					}
				case *ast.SwitchStmt:
					if exemptIs || n.Tag == nil || !isErrorExpr(pass.Info, n.Tag) {
						return true
					}
					for _, cl := range n.Body.List {
						cc := cl.(*ast.CaseClause)
						for _, v := range cc.List {
							if isErrorExpr(pass.Info, v) {
								pass.Reportf(v.Pos(), "switch over an error value compares with ==; use errors.Is in if/else chains")
							}
						}
					}
				case *ast.CallExpr:
					checkErrorf(pass, n)
					checkOSPredicate(pass, n)
				}
				return true
			})
		}
	}
	return nil
}

// checkErrorf verifies that every error-typed argument of a fmt.Errorf
// call is formatted with %w.
func checkErrorf(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeOf(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return // non-constant format: out of static reach
	}
	verbs := formatVerbs(constant.StringVal(tv.Value))
	args := call.Args[1:]
	for i, arg := range args {
		if !isErrorExpr(pass.Info, arg) || isNil(pass.Info, arg) {
			continue
		}
		verb := byte(0)
		if i < len(verbs) {
			verb = verbs[i]
		}
		if verb != 'w' {
			pass.Reportf(arg.Pos(), "error argument formatted with %%%c drops it from the errors.Is/As chain; wrap with %%w (or seal it explicitly via err.Error())", printableVerb(verb))
		}
	}
}

// osPredicates maps the os error predicates that ignore %w chains to the
// io/fs sentinel that errors.Is should test instead.
var osPredicates = map[string]string{
	"IsNotExist":   "fs.ErrNotExist",
	"IsExist":      "fs.ErrExist",
	"IsPermission": "fs.ErrPermission",
}

// checkOSPredicate flags calls of the os error predicates.
func checkOSPredicate(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeOf(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return
	}
	if sentinel, ok := osPredicates[fn.Name()]; ok {
		pass.Reportf(call.Pos(), "os.%s does not unwrap %%w chains; use errors.Is(err, %s)", fn.Name(), sentinel)
	}
}

func printableVerb(v byte) byte {
	if v == 0 {
		return '?'
	}
	return v
}

// formatVerbs returns the verb letter consuming each successive argument
// of a Printf-style format. Indexed arguments (%[n]v) abort the parse —
// none appear in this codebase — returning what was scanned so far.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); {
		c := format[i]
		i++
		if c != '%' {
			continue
		}
		// Skip flags, width and precision; '*' consumes an argument of
		// its own.
		for i < len(format) {
			c = format[i]
			if strings.IndexByte("+-# 0.", c) >= 0 || c >= '0' && c <= '9' {
				i++
				continue
			}
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			break
		}
		if i >= len(format) {
			break
		}
		c = format[i]
		i++
		if c == '%' {
			continue
		}
		if c == '[' {
			return verbs // indexed arguments: give up
		}
		verbs = append(verbs, c)
	}
	return verbs
}

// isErrorExpr reports whether the expression's static type is exactly the
// error interface or a named type implementing it whose use as a
// comparison operand indicates sentinel identity (errors.New values,
// typed sentinel vars).
func isErrorExpr(info *types.Info, e ast.Expr) bool {
	if isNil(info, e) {
		return false
	}
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	return types.AssignableTo(t, errorType) && !isBoolOrString(t)
}

var errorType = types.Universe.Lookup("error").Type()

func isBoolOrString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Info()&(types.IsBoolean|types.IsString)) != 0
}

func isNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	if tv.IsNil() {
		return true
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// isIsMethod recognises the func (e *T) Is(target error) bool shape whose
// body is the canonical place for an identity comparison.
func isIsMethod(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || fd.Name.Name != "Is" {
		return false
	}
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Signature()
	return sig.Params().Len() == 1 &&
		types.Identical(sig.Params().At(0).Type(), errorType) &&
		sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool])
}
