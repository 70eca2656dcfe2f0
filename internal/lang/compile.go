package lang

import (
	"math"
	"strings"

	"github.com/mitos-project/mitos/internal/val"
)

// compiledFn evaluates a compiled expression against the lambda arguments.
type compiledFn func(args []val.Value) (val.Value, error)

// compileExpr compiles a scalar expression into a closure tree: all
// dispatch on node and operator kinds happens once, at compile time, so
// per-element UDF evaluation costs a few nested calls instead of an AST
// walk. params maps lambda parameter names to argument indices.
//
// UDFs run this compiled form (see MakeUDF); the AST-walking EvalScalar
// remains the readable specification and is used for whole-statement
// evaluation in the reference interpreter.
func compileExpr(e Expr, params []string) (compiledFn, error) {
	switch e := e.(type) {
	case *Lit:
		v := e.V
		return func([]val.Value) (val.Value, error) { return v, nil }, nil
	case *Ident:
		idx := -1
		for i, p := range params {
			if p == e.Name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, errf(e.Pos, "undefined variable %s", e.Name)
		}
		return func(args []val.Value) (val.Value, error) { return args[idx], nil }, nil
	case *Unary:
		x, err := compileExpr(e.X, params)
		if err != nil {
			return nil, err
		}
		pos, op := e.Pos, e.Op
		return func(args []val.Value) (val.Value, error) {
			v, err := x(args)
			if err != nil {
				return val.Value{}, err
			}
			return evalUnary(pos, op, v)
		}, nil
	case *Binary:
		return compileBinary(e, params)
	case *Call:
		return compileCall(e, params)
	case *TupleExpr:
		fields := make([]compiledFn, len(e.Elems))
		for i, el := range e.Elems {
			f, err := compileExpr(el, params)
			if err != nil {
				return nil, err
			}
			fields[i] = f
		}
		return func(args []val.Value) (val.Value, error) {
			out := make([]val.Value, len(fields))
			for i, f := range fields {
				v, err := f(args)
				if err != nil {
					return val.Value{}, err
				}
				out[i] = v
			}
			return val.Tuple(out...), nil
		}, nil
	case *Field:
		x, err := compileExpr(e.X, params)
		if err != nil {
			return nil, err
		}
		pos, idx := e.Pos, e.Index
		return func(args []val.Value) (val.Value, error) {
			v, err := x(args)
			if err != nil {
				return val.Value{}, err
			}
			if v.Kind() != val.KindTuple {
				return val.Value{}, errf(pos, "field access on %s value", v.Kind())
			}
			if idx >= v.Len() {
				return val.Value{}, errf(pos, "field index %d out of range for %d-tuple", idx, v.Len())
			}
			return v.Field(idx), nil
		}, nil
	default:
		return nil, errf(e.ExprPos(), "cannot compile %T in a UDF body", e)
	}
}

func compileBinary(e *Binary, params []string) (compiledFn, error) {
	x, err := compileExpr(e.X, params)
	if err != nil {
		return nil, err
	}
	y, err := compileExpr(e.Y, params)
	if err != nil {
		return nil, err
	}
	pos := e.Pos
	// Short-circuit boolean operators.
	switch e.Op {
	case TokAnd, TokOr:
		isAnd := e.Op == TokAnd
		return func(args []val.Value) (val.Value, error) {
			a, err := x(args)
			if err != nil {
				return val.Value{}, err
			}
			if a.Kind() != val.KindBool {
				return val.Value{}, errf(pos, "boolean operator on %s value", a.Kind())
			}
			if isAnd && !a.AsBool() {
				return val.Bool(false), nil
			}
			if !isAnd && a.AsBool() {
				return val.Bool(true), nil
			}
			b, err := y(args)
			if err != nil {
				return val.Value{}, err
			}
			if b.Kind() != val.KindBool {
				return val.Value{}, errf(pos, "boolean operator on %s value", b.Kind())
			}
			return b, nil
		}, nil
	}
	type binOp func(a, b val.Value) (val.Value, error)
	var op binOp
	switch e.Op {
	case TokPlus:
		op = func(a, b val.Value) (val.Value, error) {
			if a.Kind() == val.KindInt && b.Kind() == val.KindInt {
				return val.Int(a.AsInt() + b.AsInt()), nil
			}
			if a.Kind() == val.KindString || b.Kind() == val.KindString {
				return val.Str(Render(a) + Render(b)), nil
			}
			return arith(pos, "+", a, b,
				func(x, y int64) int64 { return x + y },
				func(x, y float64) float64 { return x + y })
		}
	case TokMinus:
		op = func(a, b val.Value) (val.Value, error) {
			if a.Kind() == val.KindInt && b.Kind() == val.KindInt {
				return val.Int(a.AsInt() - b.AsInt()), nil
			}
			return arith(pos, "-", a, b, nil,
				func(x, y float64) float64 { return x - y })
		}
	case TokStar:
		op = func(a, b val.Value) (val.Value, error) {
			if a.Kind() == val.KindInt && b.Kind() == val.KindInt {
				return val.Int(a.AsInt() * b.AsInt()), nil
			}
			return arith(pos, "*", a, b, nil,
				func(x, y float64) float64 { return x * y })
		}
	case TokSlash:
		op = func(a, b val.Value) (val.Value, error) {
			if bothInt(a, b) {
				if b.AsInt() == 0 {
					return val.Value{}, errf(pos, "integer division by zero")
				}
				return val.Int(a.AsInt() / b.AsInt()), nil
			}
			return arith(pos, "/", a, b, nil,
				func(x, y float64) float64 { return x / y })
		}
	case TokPercent:
		op = func(a, b val.Value) (val.Value, error) {
			if bothInt(a, b) {
				if b.AsInt() == 0 {
					return val.Value{}, errf(pos, "integer modulo by zero")
				}
				return val.Int(a.AsInt() % b.AsInt()), nil
			}
			return arith(pos, "%", a, b, nil, math.Mod)
		}
	case TokEq, TokNeq:
		negate := e.Op == TokNeq
		op = func(a, b val.Value) (val.Value, error) {
			eq, err := scalarEqual(pos, a, b)
			if err != nil {
				return val.Value{}, err
			}
			return val.Bool(eq != negate), nil
		}
	case TokLt, TokLeq, TokGt, TokGeq:
		kind := e.Op
		op = func(a, b val.Value) (val.Value, error) {
			c, err := scalarCompare(pos, a, b)
			if err != nil {
				return val.Value{}, err
			}
			var out bool
			switch kind {
			case TokLt:
				out = c < 0
			case TokLeq:
				out = c <= 0
			case TokGt:
				out = c > 0
			case TokGeq:
				out = c >= 0
			}
			return val.Bool(out), nil
		}
	default:
		return nil, errf(pos, "unknown binary operator %s", e.Op)
	}
	return func(args []val.Value) (val.Value, error) {
		a, err := x(args)
		if err != nil {
			return val.Value{}, err
		}
		b, err := y(args)
		if err != nil {
			return val.Value{}, err
		}
		return op(a, b)
	}, nil
}

func compileCall(e *Call, params []string) (compiledFn, error) {
	fns := make([]compiledFn, len(e.Args))
	for i, a := range e.Args {
		f, err := compileExpr(a, params)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	pos := e.Pos
	// unary and binary wrap a builtin shared with evalCall: evaluate the
	// arguments, then apply it.
	unary := func(op func(x val.Value) (val.Value, error)) compiledFn {
		f := fns[0]
		return func(args []val.Value) (val.Value, error) {
			x, err := f(args)
			if err != nil {
				return val.Value{}, err
			}
			return op(x)
		}
	}
	binary := func(op func(x, y val.Value) (val.Value, error)) compiledFn {
		f, g := fns[0], fns[1]
		return func(args []val.Value) (val.Value, error) {
			x, err := f(args)
			if err != nil {
				return val.Value{}, err
			}
			y, err := g(args)
			if err != nil {
				return val.Value{}, err
			}
			return op(x, y)
		}
	}
	switch fn := e.Fn; fn {
	case "cond":
		c, a, b := fns[0], fns[1], fns[2]
		return func(args []val.Value) (val.Value, error) {
			cv, err := c(args)
			if err != nil {
				return val.Value{}, err
			}
			if cv.Kind() != val.KindBool {
				return val.Value{}, errf(pos, "cond condition is %s, want bool", cv.Kind())
			}
			if cv.AsBool() {
				return a(args)
			}
			return b(args)
		}, nil
	case "abs":
		return unary(func(x val.Value) (val.Value, error) { return builtinAbs(pos, x) }), nil
	case "str":
		return unary(func(x val.Value) (val.Value, error) { return val.Str(Render(x)), nil }), nil
	case "num":
		return unary(func(x val.Value) (val.Value, error) { return parseNum(pos, x) }), nil
	case "len":
		return unary(func(x val.Value) (val.Value, error) { return builtinLen(pos, x) }), nil
	case "min", "max":
		return binary(func(x, y val.Value) (val.Value, error) { return builtinMinMax(pos, fn, x, y) }), nil
	case "fst", "snd":
		return unary(func(x val.Value) (val.Value, error) { return builtinField(pos, fn, x) }), nil
	default:
		return nil, errf(pos, "%s cannot be compiled (bag operations are planned, not evaluated)", e.Fn)
	}
}

// Compile-aware UDF support: MakeUDF compiles lambda bodies once so that
// Call costs closure invocations, not AST walks.
func (u *UDF) ensureCompiled() error {
	if u.compiled != nil || u.native != nil {
		return nil
	}
	f, err := compileExpr(u.lambda.Body, u.lambda.Params)
	if err != nil {
		return err
	}
	u.compiled = f
	return nil
}

// udfLabel builds a short display label for a lambda.
func udfLabel(l *Lambda) string {
	var b strings.Builder
	formatExpr(&b, l, 0)
	s := b.String()
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}
