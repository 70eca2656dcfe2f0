// Package sparklike is the Spark baseline: an RDD-style API where control
// flow lives in the driver program (plain Go control flow — the
// "easy to use" side of the paper's trade-off) and every action launches a
// new job on the cluster.
//
// The two properties the paper's evaluation depends on are reproduced
// faithfully:
//
//   - every action pays a centralized job launch whose cost grows linearly
//     with the machine count (Figs. 1, 5, 6, 7), and
//   - no operator state survives across jobs, so the build side of a join
//     with a loop-invariant dataset is re-built at every iteration step
//     (Fig. 8); caching an RDD only saves its *data* re-computation, as
//     Spark's persist does — not the join hash table.
//
// Transformations are lazy lineage, evaluated per partition in parallel
// goroutines when an action runs; shuffles repartition by key hash with
// network latency charged for cross-machine partition transfers.
package sparklike

import (
	"fmt"
	"sync"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// Session is the driver's connection to the cluster.
type Session struct {
	cl  *cluster.Cluster
	st  store.Store
	par int // number of partitions (= machines by default)
}

// NewSession creates a driver session with one partition per machine.
func NewSession(cl *cluster.Cluster, st store.Store) *Session {
	return &Session{cl: cl, st: st, par: cl.Machines()}
}

// SetParallelism overrides the partition count.
func (s *Session) SetParallelism(p int) {
	if p > 0 {
		s.par = p
	}
}

// RDD is a lazy, partitioned collection with lineage.
type RDD struct {
	s       *Session
	compute func() ([][]val.Value, error)
	stages  int // stages the lineage spans (1 + shuffle boundaries)
	cache   [][]val.Value
	cached  bool
	mu      sync.Mutex
}

func (s *Session) newRDD(stages int, compute func() ([][]val.Value, error)) *RDD {
	return &RDD{s: s, compute: compute, stages: stages}
}

// materialize evaluates the lineage (or returns the cached partitions).
func (r *RDD) materialize() ([][]val.Value, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cached && r.cache != nil {
		return r.cache, nil
	}
	parts, err := r.compute()
	if err != nil {
		return nil, err
	}
	if r.cached {
		r.cache = parts
	}
	return parts, nil
}

// Cache marks the RDD to be kept in memory after its first evaluation,
// like Spark's persist. Note that this caches data, not operator state:
// joins still rebuild their hash tables in every job.
func (r *RDD) Cache() *RDD {
	r.mu.Lock()
	r.cached = true
	r.mu.Unlock()
	return r
}

// ReadFile reads a dataset as a partitioned RDD.
func (s *Session) ReadFile(name string) *RDD {
	return s.newRDD(1, func() ([][]val.Value, error) {
		elems, err := s.st.ReadDataset(name)
		if err != nil {
			return nil, err
		}
		parts := make([][]val.Value, s.par)
		for i, e := range elems {
			p := i % s.par
			parts[p] = append(parts[p], e)
		}
		return parts, nil
	})
}

// Parallelize distributes a slice over the partitions.
func (s *Session) Parallelize(elems []val.Value) *RDD {
	cp := make([]val.Value, len(elems))
	copy(cp, elems)
	return s.newRDD(1, func() ([][]val.Value, error) {
		parts := make([][]val.Value, s.par)
		for i, e := range cp {
			p := i % s.par
			parts[p] = append(parts[p], e)
		}
		return parts, nil
	})
}

// perPartition runs f over every partition of in, in parallel (one
// goroutine per partition — the task parallelism of the stage).
func (r *RDD) perPartition(f func(part []val.Value) ([]val.Value, error)) *RDD {
	return r.s.newRDD(r.stages, func() ([][]val.Value, error) {
		in, err := r.materialize()
		if err != nil {
			return nil, err
		}
		out := make([][]val.Value, len(in))
		errs := make([]error, len(in))
		var wg sync.WaitGroup
		for i := range in {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out[i], errs[i] = f(in[i])
			}(i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return out, nil
	})
}

// Map applies f to every element.
func (r *RDD) Map(f func(val.Value) (val.Value, error)) *RDD {
	return r.perPartition(func(part []val.Value) ([]val.Value, error) {
		out := make([]val.Value, 0, len(part))
		for _, x := range part {
			y, err := f(x)
			if err != nil {
				return nil, err
			}
			out = append(out, y)
		}
		return out, nil
	})
}

// FlatMap applies f and concatenates the results.
func (r *RDD) FlatMap(f func(val.Value) ([]val.Value, error)) *RDD {
	return r.perPartition(func(part []val.Value) ([]val.Value, error) {
		var out []val.Value
		for _, x := range part {
			ys, err := f(x)
			if err != nil {
				return nil, err
			}
			out = append(out, ys...)
		}
		return out, nil
	})
}

// Filter keeps elements for which p returns true.
func (r *RDD) Filter(p func(val.Value) (bool, error)) *RDD {
	return r.perPartition(func(part []val.Value) ([]val.Value, error) {
		var out []val.Value
		for _, x := range part {
			keep, err := p(x)
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, x)
			}
		}
		return out, nil
	})
}

// shuffle repartitions by hash. keyOf selects the partitioning hash.
// Cross-machine partition movements pay network latency per batch.
func (r *RDD) shuffle(keyOf func(val.Value) uint64) *RDD {
	s := r.s
	return s.newRDD(r.stages+1, func() ([][]val.Value, error) {
		in, err := r.materialize()
		if err != nil {
			return nil, err
		}
		out := make([][]val.Value, s.par)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for src := range in {
			wg.Add(1)
			go func(src int) {
				defer wg.Done()
				local := make([][]val.Value, s.par)
				for _, x := range in[src] {
					d := int(keyOf(x) % uint64(s.par))
					local[d] = append(local[d], x)
				}
				for dst := range local {
					if len(local[dst]) == 0 {
						continue
					}
					if s.cl.Place(src) != s.cl.Place(dst) {
						// One latency + bandwidth charge per transferred
						// batch of up to 128 elements.
						for sent := 0; sent < len(local[dst]); sent += 128 {
							end := min(sent+128, len(local[dst]))
							bytes := 0
							for _, x := range local[dst][sent:end] {
								bytes += val.EncodedSize(x)
							}
							s.cl.NetSleepBytes(bytes)
						}
					}
					mu.Lock()
					out[dst] = append(out[dst], local[dst]...)
					mu.Unlock()
				}
			}(src)
		}
		wg.Wait()
		return out, nil
	})
}

// ReduceByKey groups (key, value) pairs and folds each group with f.
func (r *RDD) ReduceByKey(f func(a, b val.Value) (val.Value, error)) *RDD {
	shuffled := r.shuffle(func(x val.Value) uint64 { return x.Key().Hash() })
	return shuffled.perPartition(func(part []val.Value) ([]val.Value, error) {
		groups := val.NewMap[val.Value](len(part) / 2)
		var order []val.Value
		for _, x := range part {
			k, v, err := pairParts(x)
			if err != nil {
				return nil, err
			}
			if old, ok := groups.Get(k); ok {
				y, err := f(old, v)
				if err != nil {
					return nil, err
				}
				groups.Put(k, y)
			} else {
				groups.Put(k, v)
				order = append(order, k)
			}
		}
		out := make([]val.Value, 0, len(order))
		for _, k := range order {
			v, _ := groups.Get(k)
			out = append(out, val.Pair(k, v))
		}
		return out, nil
	})
}

// Join inner-joins two RDDs of (key, value) pairs into (key, left, right)
// triples. Both sides are shuffled by key and the left side's hash table is
// built within the job — and therefore rebuilt by every job that contains
// the join, which is what loop-invariant hoisting would avoid.
func (r *RDD) Join(other *RDD) *RDD {
	left := r.shuffle(func(x val.Value) uint64 { return x.Key().Hash() })
	right := other.shuffle(func(x val.Value) uint64 { return x.Key().Hash() })
	s := r.s
	return s.newRDD(max(left.stages, right.stages), func() ([][]val.Value, error) {
		lp, err := left.materialize()
		if err != nil {
			return nil, err
		}
		rp, err := right.materialize()
		if err != nil {
			return nil, err
		}
		out := make([][]val.Value, s.par)
		errs := make([]error, s.par)
		var wg sync.WaitGroup
		for i := 0; i < s.par; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				build := val.NewMap[[]val.Value](len(lp[i]))
				for _, x := range lp[i] {
					k, v, err := pairParts(x)
					if err != nil {
						errs[i] = err
						return
					}
					p, _ := build.Ref(k)
					*p = append(*p, v)
				}
				for _, x := range rp[i] {
					k, v, err := pairParts(x)
					if err != nil {
						errs[i] = err
						return
					}
					if matches, ok := build.Get(k); ok {
						for _, lv := range matches {
							out[i] = append(out[i], val.Tuple(k, lv, v))
						}
					}
				}
			}(i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return out, nil
	})
}

// Union concatenates two RDDs.
func (r *RDD) Union(other *RDD) *RDD {
	s := r.s
	return s.newRDD(max(r.stages, other.stages), func() ([][]val.Value, error) {
		a, err := r.materialize()
		if err != nil {
			return nil, err
		}
		b, err := other.materialize()
		if err != nil {
			return nil, err
		}
		out := make([][]val.Value, s.par)
		for i := 0; i < s.par; i++ {
			out[i] = append(append([]val.Value{}, a[i]...), b[i]...)
		}
		return out, nil
	})
}

// Distinct removes duplicates.
func (r *RDD) Distinct() *RDD {
	shuffled := r.shuffle(func(x val.Value) uint64 { return x.Hash() })
	return shuffled.perPartition(func(part []val.Value) ([]val.Value, error) {
		seen := val.NewMap[struct{}](len(part))
		var out []val.Value
		for _, x := range part {
			if _, ok := seen.Get(x); !ok {
				seen.Put(x, struct{}{})
				out = append(out, x)
			}
		}
		return out, nil
	})
}

// action launches a job — the driver plans it and dispatches one task
// wave per stage of the lineage — and materializes the RDD's partitions.
func (r *RDD) action() ([][]val.Value, error) {
	r.s.cl.LaunchJob()
	for extra := 1; extra < r.stages; extra++ {
		r.s.cl.ScheduleStage()
	}
	return r.materialize()
}

// Collect is an action returning all elements.
func (r *RDD) Collect() ([]val.Value, error) {
	parts, err := r.action()
	if err != nil {
		return nil, err
	}
	var out []val.Value
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Count is an action returning the element count.
func (r *RDD) Count() (int64, error) {
	parts, err := r.action()
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range parts {
		n += int64(len(p))
	}
	return n, nil
}

// Sum is an action summing numeric elements (Int unless any Float).
func (r *RDD) Sum() (val.Value, error) {
	parts, err := r.action()
	if err != nil {
		return val.Value{}, err
	}
	var i int64
	var f float64
	isF := false
	for _, p := range parts {
		for _, x := range p {
			switch x.Kind() {
			case val.KindInt:
				i += x.AsInt()
			case val.KindFloat:
				isF = true
				f += x.AsFloat()
			default:
				return val.Value{}, fmt.Errorf("sparklike: sum of %s element", x.Kind())
			}
		}
	}
	if isF {
		return val.Float(f + float64(i)), nil
	}
	return val.Int(i), nil
}

// SaveAsFile is an action writing the RDD to the dataset store.
func (r *RDD) SaveAsFile(name string) error {
	parts, err := r.action()
	if err != nil {
		return err
	}
	var out []val.Value
	for _, p := range parts {
		out = append(out, p...)
	}
	return r.s.st.WriteDataset(name, out)
}

func pairParts(x val.Value) (k, v val.Value, err error) {
	k, v, ok := x.AsPair()
	if !ok {
		return val.Value{}, val.Value{}, fmt.Errorf("sparklike: need (key, value) pairs, got %s", x)
	}
	return k, v, nil
}
