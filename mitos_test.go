package mitos

import (
	"sort"
	"strings"
	"testing"
)

const testScript = `
data = readFile("in")
total = newBag(0)
i = 1
while (i <= 3) {
  scaled = data.cross(newBag(i)).map(t => t.0 * t.1)
  total = total.union(scaled.sum()).sum()
  i = i + 1
}
total.writeFile("out")
`

func TestCompileAndRun(t *testing.T) {
	p, err := Compile(testScript)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	st.WriteDataset("in", []Value{Int(1), Int(2), Int(3)})
	res, err := p.Run(st, Config{Machines: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.ReadDataset("out")
	if err != nil {
		t.Fatal(err)
	}
	// sum over i of i*(1+2+3) = 6*(1+2+3) = 36
	if len(out) != 1 || out[0].AsInt() != 36 {
		t.Errorf("out = %v, want [36]", out)
	}
	if res.Steps < 4 {
		t.Errorf("Steps = %d", res.Steps)
	}
	if res.ElementsSent == 0 {
		t.Error("no elements transferred")
	}
}

func TestRunSequentialMatchesDistributed(t *testing.T) {
	p, err := Compile(testScript)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewMemStore()
	seq.WriteDataset("in", []Value{Int(5), Int(7)})
	if err := p.RunSequential(seq); err != nil {
		t.Fatal(err)
	}
	dist := NewMemStore()
	dist.WriteDataset("in", []Value{Int(5), Int(7)})
	if _, err := p.Run(dist, Config{Machines: 2, DisablePipelining: true}); err != nil {
		t.Fatal(err)
	}
	a, _ := seq.ReadDataset("out")
	b, _ := dist.ReadDataset("out")
	if len(a) != 1 || len(b) != 1 || !a[0].Equal(b[0]) {
		t.Errorf("sequential %v vs distributed %v", a, b)
	}
}

// TestRunTCPReportsPlanCounters runs the same program on both backends
// through the public API: both chain by default, and the TCP result must
// report the fused edges its coordinator planned, not only the elements
// its workers pushed across them.
func TestRunTCPReportsPlanCounters(t *testing.T) {
	p, err := Compile(testScript)
	if err != nil {
		t.Fatal(err)
	}
	seed := func() NamedStore {
		st := NewMemStore()
		st.WriteDataset("in", []Value{Int(1), Int(2), Int(3)})
		return st
	}
	sim, err := p.Run(seed(), Config{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, stop, err := StartLocalTCP(2, TCPCoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	tcp, err := p.RunTCP(c, seed(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.ChainedEdges == 0 || sim.ElementsChained == 0 {
		t.Errorf("Run fused nothing: %d edges, %d elements", sim.ChainedEdges, sim.ElementsChained)
	}
	if tcp.ChainedEdges != sim.ChainedEdges || tcp.ElementsChained != sim.ElementsChained {
		t.Errorf("RunTCP fused %d edges, %d elements; Run %d, %d",
			tcp.ChainedEdges, tcp.ElementsChained, sim.ChainedEdges, sim.ElementsChained)
	}
	if tcp.Steps != sim.Steps {
		t.Errorf("RunTCP took %d steps, Run %d", tcp.Steps, sim.Steps)
	}
}

func TestBuilderProgram(t *testing.T) {
	b := NewBuilder()
	b.Assign("data", ReadFile(StrLit("in")))
	b.Assign("doubled", MapBag(Var("data"), Native("double", 1, func(args []Value) Value {
		return Int(args[0].AsInt() * 2)
	})))
	b.WriteFile(SumBag(Var("doubled")), StrLit("out"))
	p, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	st.WriteDataset("in", []Value{Int(1), Int(2), Int(3)})
	if _, err := p.Run(st, Config{Machines: 2}); err != nil {
		t.Fatal(err)
	}
	out, _ := st.ReadDataset("out")
	if len(out) != 1 || out[0].AsInt() != 12 {
		t.Errorf("out = %v, want [12]", out)
	}
}

func TestRunOnDFS(t *testing.T) {
	p, err := Compile(testScript)
	if err != nil {
		t.Fatal(err)
	}
	st := NewDFS(DFSConfig{BlockSize: 2})
	st.WriteDataset("in", []Value{Int(1), Int(2), Int(3), Int(4), Int(5)})
	if _, err := p.Run(st, Config{Machines: 3}); err != nil {
		t.Fatal(err)
	}
	out, err := st.ReadDataset("out")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].AsInt() != 90 { // 6 * 15
		t.Errorf("out = %v, want [90]", out)
	}
}

func TestProgramIntrospection(t *testing.T) {
	p, err := Compile(testScript)
	if err != nil {
		t.Fatal(err)
	}
	if src := p.Source(); !strings.Contains(src, "while") {
		t.Errorf("Source missing loop:\n%s", src)
	}
	if ssa := p.SSA(); !strings.Contains(ssa, "phi(") {
		t.Errorf("SSA missing phi:\n%s", ssa)
	}
	dot, err := p.Dot(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph", "cluster_b", "fillcolor=black", "fillcolor=lightblue"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot missing %q", want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		"x = ",                        // parse error
		"x = y",                       // check error: undefined
		`b = readFile(readFile("x"))`, // check error: bag where scalar expected
	}
	for _, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded", src)
		}
	}
}

func TestTextDatasetRoundtrip(t *testing.T) {
	in := `page7
page8,3
1.5,true,x

42
`
	elems, err := ReadTextDataset(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 4 {
		t.Fatalf("parsed %d elements", len(elems))
	}
	if !elems[0].Equal(Str("page7")) {
		t.Errorf("elems[0] = %v", elems[0])
	}
	if !elems[1].Equal(Pair(Str("page8"), Int(3))) {
		t.Errorf("elems[1] = %v", elems[1])
	}
	if !elems[2].Equal(Tuple(Float(1.5), Bool(true), Str("x"))) {
		t.Errorf("elems[2] = %v", elems[2])
	}
	if !elems[3].Equal(Int(42)) {
		t.Errorf("elems[3] = %v", elems[3])
	}
	var sb strings.Builder
	if err := WriteTextDataset(&sb, elems); err != nil {
		t.Fatal(err)
	}
	again, err := ReadTextDataset(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(elems) {
		t.Fatalf("reparse got %d elements", len(again))
	}
	for i := range elems {
		if !again[i].Equal(elems[i]) {
			t.Errorf("roundtrip elem %d: %v vs %v", i, elems[i], again[i])
		}
	}
}

func TestConfigClusterOverride(t *testing.T) {
	p, err := Compile(`a = readFile("in")
a.sum().writeFile("out")`)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	st.WriteDataset("in", []Value{Int(4)})
	cfg := DefaultClusterConfig(2)
	if _, err := p.Run(st, Config{Cluster: &cfg}); err != nil {
		t.Fatal(err)
	}
	out, _ := st.ReadDataset("out")
	if len(out) != 1 || out[0].AsInt() != 4 {
		t.Errorf("out = %v", out)
	}
}

func TestAnalyzeLoops(t *testing.T) {
	p, err := Compile(`
static = readFile("static")
i = 1
while (i <= 3) {
  dyn = readFile("dyn" + i)
  j = static.join(dyn)
  j.count().writeFile("c" + i)
  k = 1
  while (k <= 2) {
    k = k + 1
  }
  i = i + 1
}
`)
	if err != nil {
		t.Fatal(err)
	}
	r := p.AnalyzeLoops()
	if r.Loops != 2 || r.MaxDepth != 2 {
		t.Errorf("loops=%d depth=%d, want 2/2", r.Loops, r.MaxDepth)
	}
	if len(r.HoistedJoins) != 1 || r.HoistedJoins[0] != "j" {
		t.Errorf("HoistedJoins = %v, want [j]", r.HoistedJoins)
	}
	if r.InvariantInputs == 0 {
		t.Error("no invariant inputs found")
	}
	if s := r.String(); !strings.Contains(s, "hoisted join") {
		t.Errorf("String() = %q", s)
	}

	flat, err := Compile(`a = readFile("x")
a.writeFile("y")`)
	if err != nil {
		t.Fatal(err)
	}
	if got := flat.AnalyzeLoops().String(); got != "no loops" {
		t.Errorf("flat report = %q", got)
	}
}

func TestBreakContinueEndToEnd(t *testing.T) {
	p, err := Compile(`
sum = 0
i = 0
while (i < 20) {
  i = i + 1
  if (i % 2 == 0) {
    continue
  }
  if (i > 9) {
    break
  }
  sum = sum + i
}
newBag((sum, i)).writeFile("out")
`)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	if _, err := p.Run(st, Config{Machines: 3}); err != nil {
		t.Fatal(err)
	}
	out, err := st.ReadDataset("out")
	if err != nil {
		t.Fatal(err)
	}
	// odd i in 1..9 summed = 25; loop exits with i = 11.
	if len(out) != 1 || !out[0].Equal(Tuple(Int(25), Int(11))) {
		t.Errorf("out = %v, want [(25, 11)]", out)
	}
}

// TestNativeKeepingArgsMatchesSequential maps a native that keeps its
// argument slice (val.Tuple(args...)) over more than a thousand elements.
// Operator hosts call UDFs through a reused argument buffer, so the native
// must get its own copy, or every tuple it built would change under it.
// The simulated-cluster run must match RunSequential.
func TestNativeKeepingArgsMatchesSequential(t *testing.T) {
	b := NewBuilder()
	b.Assign("data", ReadFile(StrLit("in")))
	b.Assign("wrapped", MapBag(Var("data"), Native("wrap", 1, func(args []Value) Value { return Tuple(args...) })))
	b.WriteFile(Var("wrapped"), StrLit("out"))
	p, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	seed := func() NamedStore {
		in := make([]Value, 1500)
		for i := range in {
			in[i] = Int(int64(i))
		}
		st := NewMemStore()
		st.WriteDataset("in", in)
		return st
	}
	sorted := func(st NamedStore) []string {
		vs, _ := st.ReadDataset("out")
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = v.String()
		}
		sort.Strings(out)
		return out
	}
	seq := seed()
	if err := p.RunSequential(seq); err != nil {
		t.Fatal(err)
	}
	dist := seed()
	if _, err := p.Run(dist, Config{Machines: 3}); err != nil {
		t.Fatal(err)
	}
	want, got := sorted(seq), sorted(dist)
	if len(want) != 1500 || strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("distributed run (%d elements) differs from sequential (%d)", len(got), len(want))
	}
	// The TCP backend ships the program as source text, which a native
	// has none of: RunTCP must refuse it rather than run something else.
	c, stop, err := StartLocalTCP(2, TCPCoordConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if _, err := p.RunTCP(c, seed(), Config{}); err == nil {
		t.Error("RunTCP ran a program with a native UDF")
	}
}
