package main

import (
	"fmt"
	"sort"

	"github.com/mitos-project/mitos"
	"github.com/mitos-project/mitos/internal/dfs"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// machines is the cluster size of every workload: two simulated machines
// or two loopback TCP workers, all in one process.
const machines = 2

// sizes fixes the input size of every workload. The self-test shrinks
// them; a run of the benchmark always uses fullSizes.
type sizes struct {
	stepIters    int // steploop: loop iterations per job
	stepTCPIters int // steploop_tcp: loop iterations per job
	vcDays       int // visitcount: days (loop iterations)
	vcVisits     int // visitcount: visits per day
	vcPages      int // visitcount: visited page universe
	vcTypes      int // visitcount: pageTypes entries (loop-invariant build side)
	ccPairs      int // connected: two-node components
	ccChains     int // connected: long path components
	ccChainLen   int // connected: nodes per path component (≈ loop steps)
	setups       int // set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	stepIters: 10000, stepTCPIters: 2000,
	vcDays: 20, vcVisits: 2000, vcPages: 2000, vcTypes: 20000,
	ccPairs: 4000, ccChains: 8, ccChainLen: 64,
	setups: 11,
}

var workloadNames = []string{"steploop", "steploop_tcp", "visitcount", "connected"}

// instance is one workload made concrete for a seed: the program, its
// inputs, and the outputs every job must reproduce.
type instance struct {
	name   string
	tcp    bool
	source string
	inputs map[string][]val.Value
	want   map[string][]string // output dataset -> sorted canonical elements
	// inputElems is the work of one job for the data workloads; the loop
	// workloads count basic-block steps (Result.Steps) instead.
	inputElems int64
	inputDesc  string
	// tamper, when set, runs after every job and before its outputs are
	// checked. The self-test uses it to corrupt outputs on purpose.
	tamper func(store.Store)
}

func (in *instance) workUnit() string {
	if in.inputElems > 0 {
		return "elements"
	}
	return "steps"
}

// newInstance generates the workload's inputs for seed and computes the
// expected outputs: the sequential reference interpreter's for steploop*
// and visitcount, a union-find labeling for connected.
func newInstance(name string, seed int64, sz sizes) (*instance, error) {
	in := &instance{name: name, inputs: map[string][]val.Value{}}
	switch name {
	case "steploop":
		in.source = stepLoopSource(seed, sz.stepIters)
		in.inputDesc = fmt.Sprintf("%d loop iterations, sim", sz.stepIters)
	case "steploop_tcp":
		in.tcp = true
		in.source = stepLoopSource(seed, sz.stepTCPIters)
		in.inputDesc = fmt.Sprintf("%d loop iterations, loopback TCP", sz.stepTCPIters)
	case "visitcount":
		in.source = visitCountSource(sz.vcDays)
		in.inputs = genVisitCount(seed, sz.vcDays, sz.vcVisits, sz.vcPages, sz.vcTypes)
		in.inputDesc = fmt.Sprintf("%d days x %d visits over %d Zipf pages, %d pageTypes, sim",
			sz.vcDays, sz.vcVisits, sz.vcPages, sz.vcTypes)
	case "connected":
		in.tcp = true
		in.source = connectedSource
		in.inputs = genConnected(seed, sz.ccPairs, sz.ccChains, sz.ccChainLen)
		in.inputDesc = fmt.Sprintf("%d nodes (%d pairs + %d chains of %d), %d directed edges, loopback TCP",
			len(in.inputs["nodes"]), sz.ccPairs, sz.ccChains, sz.ccChainLen, len(in.inputs["edges"]))
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if name == "visitcount" || name == "connected" {
		for _, elems := range in.inputs {
			in.inputElems += int64(len(elems))
		}
	}
	var err error
	if name == "connected" {
		in.want = map[string][]string{"components": canonical(unionFindLabels(in.inputs))}
	} else {
		in.want, err = sequentialOutputs(in.source, in.inputs)
	}
	return in, err
}

// newStore returns the DFS store (no open delay) holding the inputs.
func (in *instance) newStore() (*dfs.Store, error) {
	st := mitos.NewDFS(mitos.DFSConfig{})
	for name, elems := range in.inputs {
		if err := st.WriteDataset(name, elems); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// sequentialOutputs runs the program on the sequential reference
// interpreter and returns every dataset it wrote.
func sequentialOutputs(source string, inputs map[string][]val.Value) (map[string][]string, error) {
	prog, err := mitos.Compile(source)
	if err != nil {
		return nil, err
	}
	st := memStoreWith(inputs)
	if err := prog.RunSequential(st); err != nil {
		return nil, fmt.Errorf("sequential oracle: %w", err)
	}
	want := map[string][]string{}
	for _, name := range st.Names() {
		if _, isInput := inputs[name]; isInput {
			continue
		}
		elems, err := st.ReadDataset(name)
		if err != nil {
			return nil, err
		}
		want[name] = canonical(elems)
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("sequential oracle wrote no output")
	}
	return want, nil
}

// memStoreWith returns an in-memory store holding the datasets; the
// sequential interpreter runs against it.
func memStoreWith(sets map[string][]val.Value) *store.MemStore {
	st := mitos.NewMemStore()
	for name, elems := range sets {
		_ = st.WriteDataset(name, elems) // MemStore writes cannot fail
	}
	return st
}

// unionFindLabels labels every node with the smallest node ID of its
// connected component, independently of the program under test.
func unionFindLabels(inputs map[string][]val.Value) []val.Value {
	parent := map[int64]int64{}
	var find func(int64) int64
	find = func(x int64) int64 {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	for _, e := range inputs["edges"] {
		a, b := find(e.Field(0).AsInt()), find(e.Field(1).AsInt())
		if a == b {
			continue
		}
		if b < a {
			a, b = b, a
		}
		parent[b] = a // the root is always the component's minimum
	}
	out := make([]val.Value, 0, len(inputs["nodes"]))
	for _, n := range inputs["nodes"] {
		out = append(out, val.Pair(n, val.Int(find(n.AsInt()))))
	}
	return out
}

func sortedNames(sets map[string][]val.Value) []string {
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func canonical(elems []val.Value) []string {
	out := make([]string, len(elems))
	for i, e := range elems {
		out[i] = e.String()
	}
	sort.Strings(out)
	return out
}

// staleOutput marks an output dataset before a job, so an output the job
// failed to write cannot pass as the previous job's.
var staleOutput = []val.Value{val.Str("stale output of an earlier job")}

func (in *instance) poison(st store.Store) error {
	for name := range in.want {
		if err := st.WriteDataset(name, staleOutput); err != nil {
			return err
		}
	}
	return nil
}

// verify compares every expected output dataset with the store's.
func (in *instance) verify(st store.Store) error {
	if in.tamper != nil {
		in.tamper(st)
	}
	for name, want := range in.want {
		elems, err := st.ReadDataset(name)
		if err != nil {
			return fmt.Errorf("output %q: %w", name, err)
		}
		got := canonical(elems)
		if len(got) != len(want) {
			return fmt.Errorf("output %q: %d elements, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("output %q: element %q, want %q", name, got[i], want[i])
			}
		}
	}
	return nil
}
