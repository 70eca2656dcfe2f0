package main

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/mitos-project/mitos/internal/val"
)

// Seeded input generators. Every generator draws from its own
// rand.Source seeded with the run's --seed, so one seed always yields the
// same datasets. The program under test receives only what these write
// into the store.

// stepLoopSource is the Fig. 7 trivial loop. The seed picks the start
// value; the iteration count, and so the work per job, is fixed.
func stepLoopSource(seed int64, iters int) string {
	start := rand.New(rand.NewSource(seed)).Int63n(1_000_000)
	return fmt.Sprintf(`x = %d
while (x < %d) {
  x = x + 1
}
newBag(x).writeFile("out")
`, start, start+int64(iters))
}

// visitCountSource is Visit Count with day-over-day diffs and the
// loop-invariant pageTypes join (paper Sec. 2): the join's build side is
// hoisted out of the loop, the visit counts go through a combiner.
func visitCountSource(days int) string {
	return fmt.Sprintf(`yesterdayCounts = empty()
pageTypes = readFile("pageTypes")
day = 1
do {
  rawVisits = readFile("pageVisitLog" + day)
  tagged = pageTypes.join(rawVisits.map(x => (x, 1)))
  visits = tagged.filter(t => t.1 == "article").map(t => t.0)
  counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b)
  if (day != 1) {
    diffs = counts.join(yesterdayCounts).map(t => abs(t.1 - t.2))
    diffs.sum().writeFile("diff" + day)
  }
  yesterdayCounts = counts
  day = day + 1
} while (day <= %d)
`, days)
}

// genVisitCount writes pageVisitLog1..days and pageTypes. Page popularity
// is Zipf-skewed, so the hash partition owning the head pages runs hot.
// The seed draws the visit stream only: page i is always the i-th most
// popular and every third page is an index page, so which partition runs
// hot and how much of the stream the filter drops are the same for every
// seed, and so is the work of a job. pageTypes lists typeEntries pages,
// more than the visited universe, so part of the build side never matches.
func genVisitCount(seed int64, days, visitsPerDay, pages, typeEntries int) map[string][]val.Value {
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(pages-1))
	out := make(map[string][]val.Value, days+1)
	for day := 1; day <= days; day++ {
		elems := make([]val.Value, visitsPerDay)
		for i := range elems {
			elems[i] = val.Str(fmt.Sprintf("page%d", zipf.Uint64()))
		}
		out[fmt.Sprintf("pageVisitLog%d", day)] = elems
	}
	types := make([]val.Value, typeEntries)
	for i := range types {
		t := "article"
		if i%3 == 0 {
			t = "index"
		}
		types[i] = val.Pair(val.Str(fmt.Sprintf("page%d", i)), val.Str(t))
	}
	out["pageTypes"] = types
	return out
}

// connectedSource is connected components as a delta iteration: labels
// start as node IDs, deltaMerge keeps each node's minimum label in the
// indexed solution set, and each step joins only the changed labels with
// the edges. The loop ends when a step changes nothing.
const connectedSource = `edges = readFile("edges")
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

// genConnected writes "nodes" and "edges" (both directions) for pairs
// two-node components plus chains path components of chainLen nodes. The
// pairs make the solution set large and converge at once; the chains keep
// a tiny frontier alive for chainLen steps. Node IDs are a seeded
// permutation, so components do not line up with hash partitions. Within
// each chain the IDs ascend from its head, so the minimum label always
// travels the whole chain and every seed runs the same number of steps.
func genConnected(seed int64, pairs, chains, chainLen int) map[string][]val.Value {
	n := 2*pairs + chains*chainLen
	id := rand.New(rand.NewSource(seed)).Perm(n)
	for c := 0; c < chains; c++ {
		base := 2*pairs + c*chainLen
		sort.Ints(id[base : base+chainLen])
	}
	nodes := make([]val.Value, n)
	for i := range nodes {
		nodes[i] = val.Int(int64(id[i]))
	}
	var edges []val.Value
	link := func(a, b int) {
		u, v := val.Int(int64(id[a])), val.Int(int64(id[b]))
		edges = append(edges, val.Pair(u, v), val.Pair(v, u))
	}
	for p := 0; p < pairs; p++ {
		link(2*p, 2*p+1)
	}
	for c := 0; c < chains; c++ {
		base := 2*pairs + c*chainLen
		for i := 1; i < chainLen; i++ {
			link(base+i-1, base+i)
		}
	}
	return map[string][]val.Value{"nodes": nodes, "edges": edges}
}
