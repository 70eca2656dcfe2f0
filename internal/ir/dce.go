package ir

import "github.com/mitos-project/mitos/internal/lang"

// EliminateDeadCode removes instructions whose results can never influence
// an observable effect. Roots are writeFile instructions and every branch
// condition; anything not transitively referenced from a root is dropped.
// Without this pass, dead SSA definitions would become live dataflow
// operators that compute and ship bags nobody consumes.
//
// The graph must be in SSA form. It returns the number of instructions
// removed.
func EliminateDeadCode(g *Graph) int {
	live := make(map[string]bool)
	def := make(map[string]*Instr)
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			def[in.Var] = in
		}
	}
	var mark func(v string)
	mark = func(v string) {
		if live[v] {
			return
		}
		live[v] = true
		if in, ok := def[v]; ok {
			for _, a := range in.Args {
				mark(a)
			}
		}
	}
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == OpWriteFile {
				mark(in.Var)
			}
		}
		if b.Term.Kind == TermBranch {
			mark(b.Term.Cond)
		}
	}
	removed := 0
	for _, b := range g.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if live[in.Var] {
				kept = append(kept, in)
			} else {
				removed++
			}
		}
		b.Instrs = kept
	}
	return removed
}

// CompileSource parses, checks, and compiles Mitos script source to SSA —
// the whole front and middle end for callers that hold source text.
func CompileSource(src string) (*Graph, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	if _, err := lang.Check(prog); err != nil {
		return nil, err
	}
	return CompileToSSA(prog)
}

// CompileToSSA runs the full middle-end pipeline on a checked program:
// lowering, SSA conversion, and dead-code elimination. It is the single
// entry point used by the public API, the workloads, and the tools.
func CompileToSSA(prog *lang.Program) (*Graph, error) {
	g, err := Lower(prog)
	if err != nil {
		return nil, err
	}
	if err := ToSSA(g); err != nil {
		return nil, err
	}
	EliminateDeadCode(g)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
