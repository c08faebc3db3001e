package lang

import (
	"strings"
	"testing"
)

const matvecSrc = `
program matvec
param N, M
known N = 3200
known M = 16384
array A[N][M] of float64
array x[M] of float64
array y[N] of float64

for i = 0 to N-1 {
    for j = 0 to M-1 {
        y[i] = y[i] + A[i][j] * x[j] @ 20
    }
}
`

func TestParseMatvec(t *testing.T) {
	p, err := Parse(matvecSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "matvec" {
		t.Errorf("name = %q", p.Name)
	}
	if len(p.Params) != 2 || len(p.Arrays) != 3 {
		t.Fatalf("params=%v arrays=%d", p.Params, len(p.Arrays))
	}
	if p.Known["N"] != 3200 || p.Known["M"] != 16384 {
		t.Fatalf("known = %v", p.Known)
	}
	a := p.FindArray("A")
	if a == nil || a.ElemSize != 8 || len(a.Dims) != 2 {
		t.Fatalf("array A wrong: %+v", a)
	}
	outer, ok := p.Body[0].(*Loop)
	if !ok {
		t.Fatal("body[0] not a loop")
	}
	inner, ok := outer.Body[0].(*Loop)
	if !ok {
		t.Fatal("inner not a loop")
	}
	asg, ok := inner.Body[0].(*Assign)
	if !ok {
		t.Fatal("innermost not an assignment")
	}
	if asg.CostNS != 20 {
		t.Errorf("cost = %v, want 20", asg.CostNS)
	}
	refs := StmtRefs(asg)
	if len(refs) != 4 { // y (write), y, A, x
		t.Fatalf("refs = %d, want 4", len(refs))
	}
	if !refs[0].Write || refs[1].Write {
		t.Error("write flags wrong")
	}
}

func TestAffineSubscripts(t *testing.T) {
	p := MustParse(`
program stencil
param N
array a[N][N] of float64
for i = 1 to N-2 {
    for j = 1 to N-2 {
        a[i][j] = a[i+1][j-1] + a[i-1][j+1] + 2*i + 1
    }
}
`)
	loop := p.Body[0].(*Loop).Body[0].(*Loop)
	asg := loop.Body[0].(*Assign)
	refs := StmtRefs(asg)
	r1 := refs[1] // a[i+1][j-1]
	i0 := r1.Index[0].(*Affine)
	if c, _ := i0.CoefOf("i"); c != 1 || i0.Const != 1 {
		t.Fatalf("a[i+1] parsed wrong: %+v", i0)
	}
	i1 := r1.Index[1].(*Affine)
	if c, _ := i1.CoefOf("j"); c != 1 || i1.Const != -1 {
		t.Fatalf("a[j-1] parsed wrong: %+v", i1)
	}
}

func TestIndirectSubscript(t *testing.T) {
	p := MustParse(`
program buk
param N
array key[N] of int64
array rank[N] of int64
for i = 0 to N-1 {
    rank[key[i]] = rank[key[i]] + 1
}
`)
	asg := p.Body[0].(*Loop).Body[0].(*Assign)
	ind, ok := asg.LHS.Index[0].(*Indirect)
	if !ok {
		t.Fatal("subscript not indirect")
	}
	if ind.Array.Name != "key" {
		t.Errorf("indirection through %s", ind.Array.Name)
	}
	if c, _ := ind.Idx.CoefOf("i"); c != 1 {
		t.Error("inner affine wrong")
	}
}

func TestSymbolicStrideCoefficient(t *testing.T) {
	p := MustParse(`
program fft
param N, S
array a[N] of float64
for i = 0 to N/2-1 {
    a[S*i] = a[S*i] + 1
}
`)
	asg := p.Body[0].(*Loop).Body[0].(*Assign)
	aff := asg.LHS.Index[0].(*Affine)
	coef, symbolic := aff.CoefOf("i")
	if !symbolic || coef != 1 {
		t.Fatalf("S*i not parsed as symbolic coefficient: %+v", aff)
	}
}

func TestProcAndCall(t *testing.T) {
	p := MustParse(`
program mgrid
param N
array u[N] of float64
proc smooth(n) {
    for i = 0 to n-1 {
        u[i] = u[i] + 1
    }
}
call smooth(N)
call smooth(N/2)
`)
	if len(p.Procs) != 1 {
		t.Fatal("proc not declared")
	}
	c1 := p.Body[0].(*Call)
	c2 := p.Body[1].(*Call)
	if c1.Proc != p.Procs[0] || c2.Proc != p.Procs[0] {
		t.Fatal("calls not bound to proc")
	}
	if c2.Args[0].Div != 2 {
		t.Fatalf("N/2 arg parsed wrong: %+v", c2.Args[0])
	}
}

func TestScalarEval(t *testing.T) {
	env := Env{"N": 100}
	cases := []struct {
		s    Scalar
		want int64
	}{
		{Const(5), 5},
		{Sym("N"), 100},
		{SymOff("N", -1), 99},
		{Scalar{Name: "N", Scale: 2, Offset: 1}, 201},
		{Scalar{Name: "N", Scale: 1, Div: 4, Offset: -1}, 24},
	}
	for _, c := range cases {
		got, err := c.s.Eval(env)
		if err != nil || got != c.want {
			t.Errorf("%v.Eval = %d,%v want %d", c.s, got, err, c.want)
		}
	}
	if _, err := Sym("Q").Eval(env); err == nil {
		t.Error("unbound symbol evaluated")
	}
}

func TestAffineEval(t *testing.T) {
	env := Env{"i": 10, "j": 3, "S": 7}
	a := &Affine{Const: 5, Terms: []Term{{Var: "i", Coef: 2}, {Var: "j", Coef: -1}}}
	v, err := a.Eval(env)
	if err != nil || v != 22 {
		t.Fatalf("eval = %d,%v want 22", v, err)
	}
	sym := &Affine{Terms: []Term{{Var: "i", Coef: 1, CoefParam: "S"}}}
	v, err = sym.Eval(env)
	if err != nil || v != 70 {
		t.Fatalf("symbolic eval = %d,%v want 70", v, err)
	}
}

func TestAffineAlgebra(t *testing.T) {
	a := &Affine{Const: 1, Terms: []Term{{Var: "i", Coef: 2}}}
	b := &Affine{Const: 3, Terms: []Term{{Var: "i", Coef: -2}, {Var: "j", Coef: 5}}}
	sum := AddAffine(a, b)
	if sum.Const != 4 {
		t.Errorf("const = %d", sum.Const)
	}
	if c, _ := sum.CoefOf("i"); c != 0 {
		t.Errorf("i coef = %d, want 0 (cancelled)", c)
	}
	if c, _ := sum.CoefOf("j"); c != 5 {
		t.Errorf("j coef = %d", c)
	}
	sc := ScaleAffine(b, 2)
	if c, _ := sc.CoefOf("j"); c != 10 || sc.Const != 6 {
		t.Errorf("scale wrong: %+v", sc)
	}
}

func TestArraySizes(t *testing.T) {
	p := MustParse(matvecSrc)
	env := Env{"N": 3200, "M": 16384}
	a := p.FindArray("A")
	bytes, err := a.Bytes(env)
	if err != nil {
		t.Fatal(err)
	}
	if bytes != 3200*16384*8 {
		t.Fatalf("A bytes = %d", bytes)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	srcs := []string{matvecSrc, `
program buk
param N
array key[N] of int64
array rank[N] of int64
for i = 0 to N-1 {
    rank[key[i]] = rank[key[i]] + 1
}
`}
	for _, src := range srcs {
		p1 := MustParse(src)
		text := Format(p1)
		p2, err := Parse(text)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\n%s", err, text)
		}
		if Format(p2) != text {
			t.Fatalf("format not stable:\n--- first\n%s\n--- second\n%s", text, Format(p2))
		}
	}
}

func TestParseErrorsAreDiagnosed(t *testing.T) {
	bad := []string{
		"",                                // no program
		"program p",                       // no statements
		"program p\nfor i = 0 to N-1 { }", // unbound is fine at parse; empty block body runs; but N array missing... empty loop ok
		"program p\narray a of float64\na[0] = 1",                               // array without dims
		"program p\narray a[10] of float64\na[0][1] = 2",                        // too many subscripts
		"program p\narray a[10] of float64\nb[0] = 1",                           // undeclared array
		"program p\nknown N = 3",                                                // known of undeclared param
		"program p\narray a[10] of float64\nfor i = 0 to 9 step 0 { a[i] = 1 }", // zero step
	}
	for i, src := range bad {
		if i == 2 {
			continue // empty loop body is legal
		}
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: bad source parsed without error:\n%s", i, src)
		}
	}
}

func TestMoreParseErrors(t *testing.T) {
	bad := []string{
		"program p\narray a[10] of nosuchtype\na[0] = 1",
		"program p\narray a[10] of 0\na[0] = 1",                                                        // zero elem size
		"program p\narray a[10] of float64\narray a[4] of float64",                                     // redeclared
		"program p\narray a[10] of float64\na[i*j] = 1",                                                // two non-params multiplied
		"program p\nparam N\narray a[10] of float64\ncall f(N)",                                        // undeclared proc
		"program p\nproc f(x) { }\ncall f(1, 2)",                                                       // arity
		"program p\narray a[10] of float64\nfor i = 0 to 9 { a[i] = 1",                                 // unclosed block
		"program p\narray b[4][4] of int64\narray a[10] of float64\nfor i = 0 to 3 { a[b[i][i]] = 1 }", // 2-D indirection array
		"program p\narray a[10] of float64\na[0] = 1 @ x",                                              // non-numeric cost
		"program p\nknown = 4",                                                                         // malformed known
		"program p\narray a[10] of float64\nfor i = 0 to {\n}",                                         // missing bound
	}
	for i, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d parsed without error:\n%s", i, src)
		}
	}
}

func TestTryEvalAndClone(t *testing.T) {
	env := Env{"N": 7}
	if v, ok := Sym("N").TryEval(env); !ok || v != 7 {
		t.Fatalf("TryEval = %d,%v", v, ok)
	}
	if _, ok := Sym("Q").TryEval(env); ok {
		t.Fatal("unbound TryEval succeeded")
	}
	c := env.Clone()
	c["N"] = 9
	if env["N"] != 7 {
		t.Fatal("Clone aliases the original")
	}
}

func TestScalarStringForms(t *testing.T) {
	cases := map[string]Scalar{
		"5":       Const(5),
		"N":       Sym("N"),
		"N-1":     SymOff("N", -1),
		"2*N":     {Name: "N", Scale: 2},
		"N/4":     {Name: "N", Scale: 1, Div: 4},
		"2*N/4+1": {Name: "N", Scale: 2, Div: 4, Offset: 1},
	}
	for want, s := range cases {
		if got := s.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestAffineEvalErrors(t *testing.T) {
	a := &Affine{Terms: []Term{{Var: "i", Coef: 1}}}
	if _, err := a.Eval(Env{}); err == nil {
		t.Fatal("unbound var evaluated")
	}
	sym := &Affine{Terms: []Term{{Var: "i", Coef: 1, CoefParam: "S"}}}
	if _, err := sym.Eval(Env{"i": 1}); err == nil {
		t.Fatal("unbound stride param evaluated")
	}
}

func TestArrayErrors(t *testing.T) {
	a := &Array{Name: "a", ElemSize: 8, Dims: []Scalar{Sym("N")}}
	if _, err := a.NumElems(Env{}); err == nil {
		t.Fatal("unbound dim evaluated")
	}
	if _, err := a.NumElems(Env{"N": -1}); err == nil {
		t.Fatal("negative dim accepted")
	}
	if _, err := a.Bytes(Env{"N": 4}); err != nil {
		t.Fatal(err)
	}
}

func TestCommentsIgnored(t *testing.T) {
	p := MustParse(`
program c
# hash comment
// slash comment
array a[10] of float64
a[0] = 1 // trailing
`)
	if len(p.Body) != 1 {
		t.Fatal("comment handling broke the body")
	}
}

func TestOpsCount(t *testing.T) {
	p := MustParse(`
program ops
array a[10] of float64
a[0] = a[1] + a[2] * a[3] - 1
`)
	asg := p.Body[0].(*Assign)
	if n := Ops(asg.RHS); n != 3 {
		t.Fatalf("Ops = %d, want 3", n)
	}
}

func TestFormatAffineForms(t *testing.T) {
	cases := []struct {
		a    *Affine
		want string
	}{
		{&Affine{Const: 0}, "0"},
		{&Affine{Const: 3, Terms: []Term{{Var: "i", Coef: 1}}}, "i+3"},
		{&Affine{Const: -1, Terms: []Term{{Var: "i", Coef: 1}}}, "i-1"},
		{&Affine{Terms: []Term{{Var: "i", Coef: 1, CoefParam: "S"}}}, "S*i"},
		{&Affine{Terms: []Term{{Var: "i", Coef: -1}}}, "-i"},
	}
	for _, c := range cases {
		if got := FormatAffine(c.a); got != c.want {
			t.Errorf("FormatAffine = %q, want %q", got, c.want)
		}
	}
}

func TestSetDataPanicsOnUnknownArray(t *testing.T) {
	p := MustParse("program q\narray a[4] of float64\na[0] = 1")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.SetData("nosuch", func(int64) int64 { return 0 })
}

func TestSetData(t *testing.T) {
	p := MustParse("program q\narray a[4] of float64\na[0] = 1")
	p.SetData("a", func(i int64) int64 { return i * 2 })
	if p.FindArray("a").Data(21) != 42 {
		t.Fatal("data fn not attached")
	}
}

func TestFormatContainsProcAndCall(t *testing.T) {
	p := MustParse(`
program m
param N
array u[N] of float64
proc f(n) {
    for i = 0 to n-1 { u[i] = 0 }
}
call f(N/2)
`)
	out := Format(p)
	if !strings.Contains(out, "proc f(n)") || !strings.Contains(out, "call f(N/2)") {
		t.Fatalf("format missing proc/call:\n%s", out)
	}
}
