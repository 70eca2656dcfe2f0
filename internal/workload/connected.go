// Connected components as a delta iteration: the workload behind the
// delta/workset benchmark. The graph is built so the workset shrinks
// sharply while the solution set stays large — the regime where
// incremental maintenance wins: a sea of two-node components converges in
// the first couple of steps, while a handful of long path components keep
// the loop running for LongLen more steps with a tiny frontier. Full
// re-derivation (-delta=off) rebuilds the whole label index on every one
// of those near-empty steps; incremental maintenance touches only the
// frontier's keys.
package workload

import (
	"fmt"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// ConnectedSpec describes the benchmark graph.
type ConnectedSpec struct {
	// PairChains is the number of two-node components (converged after the
	// second step); they make the solution set large.
	PairChains int
	// LongChains path components of LongLen nodes each keep a small
	// frontier alive for LongLen steps — the loop's long tail.
	LongChains int
	LongLen    int
}

// Nodes is the total node count.
func (s ConnectedSpec) Nodes() int { return 2*s.PairChains + s.LongChains*s.LongLen }

// Generate writes the "nodes" and (undirected, so both directions)
// "edges" datasets.
func (s ConnectedSpec) Generate(st store.Store) error {
	nodes := make([]val.Value, 0, s.Nodes())
	var edges []val.Value
	link := func(u, v int) {
		edges = append(edges,
			val.Pair(val.Int(int64(u)), val.Int(int64(v))),
			val.Pair(val.Int(int64(v)), val.Int(int64(u))))
	}
	id := 0
	for c := 0; c < s.PairChains; c++ {
		nodes = append(nodes, val.Int(int64(id)), val.Int(int64(id+1)))
		link(id, id+1)
		id += 2
	}
	for c := 0; c < s.LongChains; c++ {
		for i := 0; i < s.LongLen; i++ {
			nodes = append(nodes, val.Int(int64(id+i)))
			if i > 0 {
				link(id+i-1, id+i)
			}
		}
		id += s.LongLen
	}
	if err := st.WriteDataset("nodes", nodes); err != nil {
		return err
	}
	return st.WriteDataset("edges", edges)
}

// ConnectedScript is the connected-components delta iteration: labels
// start as node IDs, deltaMerge keeps the per-node minimum in the indexed
// solution set, and each step joins only the changed labels against the
// edges. The loop exits when a step changes nothing.
const ConnectedScript = `
edges = readFile("edges")
nodes = readFile("nodes")
d = nodes.map(x => (x, x))
do {
  w = empty().deltaMerge(d, (a, b) => min(a, b))
  d = edges.join(w).map(t => (t.1, t.2))
  n = only(w.count())
} while (n > 0)
comp = w.solution()
comp.writeFile("components")
`

// CompileMitos compiles the connected-components script to SSA.
func (s ConnectedSpec) CompileMitos() (*ir.Graph, error) {
	return ir.CompileSource(ConnectedScript)
}

// RunConnected executes connected components on the Mitos runtime and
// verifies the labeling: every node of a pair component must carry the
// pair's smaller ID, every node of a long chain its chain's first ID.
func RunConnected(s ConnectedSpec, st store.Store, cl *cluster.Cluster, opts core.Options) (*core.Result, error) {
	g, err := s.CompileMitos()
	if err != nil {
		return nil, err
	}
	res, err := core.Execute(g, st, cl, opts)
	if err != nil {
		return nil, err
	}
	comp, err := st.ReadDataset("components")
	if err != nil {
		return nil, err
	}
	if len(comp) != s.Nodes() {
		return nil, fmt.Errorf("workload: %d labeled nodes, want %d", len(comp), s.Nodes())
	}
	pairNodes := 2 * s.PairChains
	for _, p := range comp {
		u, label := p.Field(0).AsInt(), p.Field(1).AsInt()
		want := u - u%2 // pair component: the even ID
		if u >= int64(pairNodes) {
			want = u - (u-int64(pairNodes))%int64(s.LongLen) // chain head
		}
		if label != want {
			return nil, fmt.Errorf("workload: node %d labeled %d, want %d", u, label, want)
		}
	}
	return res, nil
}
