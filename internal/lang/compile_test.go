package lang

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/mitos-project/mitos/internal/val"
)

// randomScalarExpr builds a random well-formed scalar expression over
// integer/float parameters p0, p1.
func randomScalarExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return &Lit{V: val.Int(r.Int63n(100) - 50)}
		case 1:
			return &Lit{V: val.Float(r.NormFloat64())}
		case 2:
			return &Ident{Name: "p0"}
		default:
			return &Ident{Name: "p1"}
		}
	}
	switch r.Intn(9) {
	case 0:
		return &Unary{Op: TokMinus, X: randomScalarExpr(r, depth-1)}
	case 1:
		ops := []TokKind{TokPlus, TokMinus, TokStar}
		return &Binary{Op: ops[r.Intn(len(ops))], X: randomScalarExpr(r, depth-1), Y: randomScalarExpr(r, depth-1)}
	case 2:
		cmps := []TokKind{TokEq, TokNeq, TokLt, TokLeq, TokGt, TokGeq}
		cmp := &Binary{Op: cmps[r.Intn(len(cmps))], X: randomScalarExpr(r, depth-1), Y: randomScalarExpr(r, depth-1)}
		return &Call{Fn: "cond", Args: []Expr{cmp, randomScalarExpr(r, depth-1), randomScalarExpr(r, depth-1)}}
	case 3:
		return &Call{Fn: "abs", Args: []Expr{randomScalarExpr(r, depth-1)}}
	case 4:
		return &Call{Fn: "min", Args: []Expr{randomScalarExpr(r, depth-1), randomScalarExpr(r, depth-1)}}
	case 5:
		return &Call{Fn: "max", Args: []Expr{randomScalarExpr(r, depth-1), randomScalarExpr(r, depth-1)}}
	case 6:
		return &Field{X: &TupleExpr{Elems: []Expr{randomScalarExpr(r, depth-1), randomScalarExpr(r, depth-1)}}, Index: r.Intn(2)}
	case 7:
		// fst/snd over a 1- or 2-tuple: snd of a 1-tuple is an error case.
		elems := []Expr{randomScalarExpr(r, depth-1)}
		if r.Intn(2) == 0 {
			elems = append(elems, randomScalarExpr(r, depth-1))
		}
		return &Call{Fn: []string{"fst", "snd"}[r.Intn(2)], Args: []Expr{&TupleExpr{Elems: elems}}}
	default:
		return &Call{Fn: "str", Args: []Expr{randomScalarExpr(r, depth-1)}}
	}
}

// TestCompiledMatchesInterpreter is the differential property test of the
// UDF closure compiler: for random expressions and arguments, the compiled
// form must produce exactly what the AST interpreter produces (value or
// error).
func TestCompiledMatchesInterpreter(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	params := []string{"p0", "p1"}
	for trial := 0; trial < 2000; trial++ {
		e := randomScalarExpr(r, 1+r.Intn(4))
		compiled, err := compileExpr(e, params)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		args := []val.Value{val.Int(r.Int63n(20) - 10), val.Float(r.NormFloat64())}
		env := func(name string) (val.Value, bool) {
			switch name {
			case "p0":
				return args[0], true
			case "p1":
				return args[1], true
			}
			return val.Value{}, false
		}
		want, wantErr := EvalScalar(e, env)
		got, gotErr := compiled(args)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: interp=%v compiled=%v", trial, wantErr, gotErr)
		}
		if wantErr == nil && !got.Equal(want) {
			var b strings.Builder
			formatExpr(&b, e, 0)
			t.Fatalf("trial %d: %s with %v: interp=%v compiled=%v", trial, b.String(), args, want, got)
		}
	}
}

// TestCompiledBuiltinsMatchInterpreter runs min, max, fst and snd over
// every argument combination from a pool of all value kinds: the compiled
// builtin must return the interpreter's value, or fail with the same
// error text (mixed kinds, non-tuples, a 1-tuple for snd).
func TestCompiledBuiltinsMatchInterpreter(t *testing.T) {
	pool := []val.Value{
		val.Int(-3), val.Int(7), val.Float(2.5), val.Float(7), val.Str("a"), val.Str("b"),
		val.Bool(true), val.Tuple(), val.Tuple(val.Int(1)), val.Tuple(val.Str("k"), val.Int(2)),
	}
	params := []string{"p0", "p1"}
	check := func(fn string, args ...val.Value) {
		e := &Call{Fn: fn}
		for i := range args {
			e.Args = append(e.Args, &Ident{Name: params[i]})
		}
		compiled, err := compileExpr(e, params)
		if err != nil {
			t.Fatalf("compile %s: %v", fn, err)
		}
		env := func(name string) (val.Value, bool) {
			for i, p := range params[:len(args)] {
				if p == name {
					return args[i], true
				}
			}
			return val.Value{}, false
		}
		want, wantErr := EvalScalar(e, env)
		got, gotErr := compiled(args)
		switch {
		case (wantErr == nil) != (gotErr == nil):
			t.Errorf("%s%v: interp err %v, compiled err %v", fn, args, wantErr, gotErr)
		case wantErr != nil && wantErr.Error() != gotErr.Error():
			t.Errorf("%s%v: interp err %q, compiled err %q", fn, args, wantErr, gotErr)
		case wantErr == nil && !got.Equal(want):
			t.Errorf("%s%v: interp %v, compiled %v", fn, args, want, got)
		}
	}
	for _, x := range pool {
		check("fst", x)
		check("snd", x)
		for _, y := range pool {
			check("min", x, y)
			check("max", x, y)
		}
	}
}

func TestCompiledShortCircuit(t *testing.T) {
	// (p0 == 0) || (10 / p0 > 1): compiled form must not divide by zero
	// when the left side is true.
	e := &Binary{Op: TokOr,
		X: &Binary{Op: TokEq, X: &Ident{Name: "p0"}, Y: &Lit{V: val.Int(0)}},
		Y: &Binary{Op: TokGt, X: &Binary{Op: TokSlash, X: &Lit{V: val.Int(10)}, Y: &Ident{Name: "p0"}}, Y: &Lit{V: val.Int(1)}},
	}
	f, err := compileExpr(e, []string{"p0"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f([]val.Value{val.Int(0)})
	if err != nil || !got.AsBool() {
		t.Errorf("short-circuit broken: %v, %v", got, err)
	}
	got, err = f([]val.Value{val.Int(2)})
	if err != nil || !got.AsBool() {
		t.Errorf("10/2 > 1 = %v, %v", got, err)
	}
	if _, err := f([]val.Value{val.Int(100)}); err != nil {
		t.Errorf("10/100 > 1 errored: %v", err)
	}
}

func TestCompileRejectsFreeVariables(t *testing.T) {
	e := &Ident{Name: "free"}
	if _, err := compileExpr(e, []string{"p0"}); err == nil {
		t.Error("free variable compiled")
	}
}

func TestCompileRejectsBagConstructs(t *testing.T) {
	e := &Call{Fn: "readFile", Args: []Expr{&Lit{V: val.Str("f")}}}
	if _, err := compileExpr(e, nil); err == nil {
		t.Error("bag construct compiled")
	}
}

func TestUDFLabelTruncated(t *testing.T) {
	long := Expr(&Ident{Name: "x"})
	for i := 0; i < 30; i++ {
		long = &Binary{Op: TokPlus, X: long, Y: &Ident{Name: "x"}}
	}
	u, err := MakeUDF(&Lambda{Params: []string{"x"}, Body: long})
	if err != nil {
		t.Fatal(err)
	}
	if len(u.label) > 64 {
		t.Errorf("label length = %d", len(u.label))
	}
}

func BenchmarkUDFCompiled(b *testing.B) {
	u := lambdaUDF(b, "y = b.map(x => (x.0, abs(x.1 - x.2) * 2 + 1))")
	arg := val.Tuple(val.Str("k"), val.Int(10), val.Int(25))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.Call(arg); err != nil {
			b.Fatal(err)
		}
	}
}

// lambdaUDF compiles the lambda of a one-statement map/filter/reduce
// script such as "y = b.map(x => x + 1)".
func lambdaUDF(tb testing.TB, src string) *UDF {
	tb.Helper()
	p, err := Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	u, err := MakeUDF(p.Stmts[0].(*AssignStmt).RHS.(*Method).Args[0])
	if err != nil {
		tb.Fatal(err)
	}
	return u
}

// TestUDFCallAllocs pins the per-element UDF paths of the operator hosts:
// called through a reused argument buffer, a compiled builtin fold and a
// field-compare filter allocate nothing.
func TestUDFCallAllocs(t *testing.T) {
	var buf [2]val.Value
	minUDF := lambdaUDF(t, "y = b.reduce((a, b) => min(a, b))")
	if n := testing.AllocsPerRun(1000, func() {
		buf[0], buf[1] = val.Int(3), val.Int(-4)
		if _, err := minUDF.Call(buf[:2]...); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("(a, b) => min(a, b): %v allocs per call, want 0", n)
	}
	filter := lambdaUDF(t, `y = b.filter(x => x.1 == "article")`)
	arg := val.Tuple(val.Str("page7"), val.Str("article"))
	if n := testing.AllocsPerRun(1000, func() {
		buf[0] = arg
		if _, err := filter.Call(buf[:1]...); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf(`x => x.1 == "article": %v allocs per call, want 0`, n)
	}
}

// TestNativeGetsOwnArgs checks that a native may keep its argument slice:
// Call hands it a copy, so reusing the caller's buffer cannot rewrite a
// tuple the native built from it.
func TestNativeGetsOwnArgs(t *testing.T) {
	u, err := MakeUDF(Native("pair", 2, func(args []val.Value) val.Value { return val.Tuple(args...) }))
	if err != nil {
		t.Fatal(err)
	}
	var buf [2]val.Value
	buf[0], buf[1] = val.Int(1), val.Int(2)
	first, _ := u.Call(buf[:]...)
	buf[0], buf[1] = val.Int(3), val.Int(4)
	if _, err := u.Call(buf[:]...); err != nil {
		t.Fatal(err)
	}
	if want := val.Tuple(val.Int(1), val.Int(2)); !first.Equal(want) {
		t.Errorf("first result = %v after buffer reuse, want %v", first, want)
	}
}

// BenchmarkUDFCall2 is the deltaMerge/reduceByKey fold: a two-argument
// compiled builtin called through a reused argument buffer.
func BenchmarkUDFCall2(b *testing.B) {
	u := lambdaUDF(b, "y = b.reduce((a, b) => min(a, b))")
	var buf [2]val.Value
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf[0], buf[1] = val.Int(int64(i)), val.Int(42)
		if _, err := u.Call(buf[:2]...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUDFInterpreted(b *testing.B) {
	p, err := Parse("y = b.map(x => (x.0, abs(x.1 - x.2) * 2 + 1))")
	if err != nil {
		b.Fatal(err)
	}
	m := p.Stmts[0].(*AssignStmt).RHS.(*Method)
	body := m.Args[0].(*Lambda).Body
	arg := val.Tuple(val.Str("k"), val.Int(10), val.Int(25))
	env := func(name string) (val.Value, bool) {
		if name == "x" {
			return arg, true
		}
		return val.Value{}, false
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalScalar(body, env); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleUDF() {
	p, _ := Parse("y = b.map(x => x * 2 + 1)")
	m := p.Stmts[0].(*AssignStmt).RHS.(*Method)
	u, _ := MakeUDF(m.Args[0])
	v, _ := u.Call(val.Int(20))
	fmt.Println(v)
	// Output: 41
}
