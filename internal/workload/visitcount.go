// Package workload provides the paper's evaluation workloads: the Visit
// Count task of Sec. 2 in its three variants (plain, with day-over-day
// diffs, with the loop-invariant pageTypes join), implemented for every
// system under comparison, plus deterministic input generators and the
// iteration-step-overhead microbenchmark of Fig. 7.
package workload

import (
	"fmt"
	"math/rand"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/flinklike"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/sparklike"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// VisitCountSpec parameterizes the Visit Count task. The paper uses 365
// days of 21 MB logs; tests and benchmarks scale Days and VisitsPerDay.
type VisitCountSpec struct {
	Days         int
	VisitsPerDay int
	Pages        int // page-ID universe; visits are uniform over it
	WithDiff     bool
	// WithPageTypes joins each day's visits with the loop-invariant
	// pageTypes dataset and keeps only "article" pages.
	WithPageTypes bool
	// PageTypesSize is the number of entries in the pageTypes dataset
	// (defaults to Pages). Entries beyond the page universe exercise the
	// build side without matching — the knob Fig. 8 sweeps.
	PageTypesSize int
	Seed          int64
}

func (s VisitCountSpec) pageTypesSize() int {
	if s.PageTypesSize > 0 {
		return s.PageTypesSize
	}
	return s.Pages
}

// Generate writes the input datasets: pageVisitLog1..Days and (when
// WithPageTypes) pageTypes. Generation is deterministic in Seed.
func (s VisitCountSpec) Generate(st store.Store) error {
	r := rand.New(rand.NewSource(s.Seed))
	for day := 1; day <= s.Days; day++ {
		elems := make([]val.Value, s.VisitsPerDay)
		for i := range elems {
			elems[i] = val.Str(pageID(r.Intn(s.Pages)))
		}
		if err := st.WriteDataset(fmt.Sprintf("pageVisitLog%d", day), elems); err != nil {
			return err
		}
	}
	if s.WithPageTypes {
		n := s.pageTypesSize()
		types := make([]val.Value, n)
		for i := range types {
			t := "article"
			if i%3 == 0 {
				t = "index"
			}
			types[i] = val.Pair(val.Str(pageID(i)), val.Str(t))
		}
		if err := st.WriteDataset("pageTypes", types); err != nil {
			return err
		}
	}
	return nil
}

func pageID(i int) string { return fmt.Sprintf("page%d", i) }

// Script returns the Mitos program for the spec — the imperative source of
// the paper's Sec. 2 example.
func (s VisitCountSpec) Script() string {
	src := "yesterdayCounts = empty()\n"
	if s.WithPageTypes {
		src += `pageTypes = readFile("pageTypes")` + "\n"
	}
	src += "day = 1\ndo {\n"
	if s.WithPageTypes {
		// The static pageTypes dataset is the hash-join build side, so
		// loop-invariant hoisting builds its table once (paper Sec. 5.3).
		src += `  rawVisits = readFile("pageVisitLog" + day)
  tagged = pageTypes.join(rawVisits.map(x => (x, 1)))
  visits = tagged.filter(t => t.1 == "article").map(t => t.0)
`
	} else {
		src += `  visits = readFile("pageVisitLog" + day)` + "\n"
	}
	src += "  counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b)\n"
	if s.WithDiff {
		src += `  if (day != 1) {
    diffs = counts.join(yesterdayCounts).map(t => abs(t.1 - t.2))
    diffs.sum().writeFile("diff" + day)
  }
`
	} else {
		src += `  counts.writeFile("counts" + day)` + "\n"
	}
	src += `  yesterdayCounts = counts
  day = day + 1
} while (day <= ` + fmt.Sprint(s.Days) + ")\n"
	return src
}

// CompileMitos compiles the spec's script to SSA.
func (s VisitCountSpec) CompileMitos() (*ir.Graph, error) {
	return ir.CompileSource(s.Script())
}

// RunMitos executes the Visit Count task on the Mitos runtime.
func RunMitos(s VisitCountSpec, st store.Store, cl *cluster.Cluster, opts core.Options) (*core.Result, error) {
	g, err := s.CompileMitos()
	if err != nil {
		return nil, err
	}
	return core.Execute(g, st, cl, opts)
}

// RunSpark executes the Visit Count task Spark-style: imperative control
// flow in the driver, one job launch per action, no cross-job operator
// state. The loop-invariant pageTypes RDD is repartitioned and cached once
// before the loop, as the paper's Spark implementation does — but the join
// hash table is still rebuilt every step.
func RunSpark(s VisitCountSpec, st store.Store, cl *cluster.Cluster) error {
	sess := sparklike.NewSession(cl, st)
	var pageTypes *sparklike.RDD
	if s.WithPageTypes {
		pageTypes = sess.ReadFile("pageTypes").Cache()
		// Materialize the cached partitioning once, before the loop.
		if _, err := pageTypes.Count(); err != nil {
			return err
		}
	}
	var yesterday *sparklike.RDD
	for day := 1; day <= s.Days; day++ {
		visits := sess.ReadFile(fmt.Sprintf("pageVisitLog%d", day))
		if s.WithPageTypes {
			tagged := pageTypes.Join(visits.Map(func(x val.Value) (val.Value, error) {
				return val.Pair(x, val.Int(1)), nil
			}))
			visits = tagged.
				Filter(func(t val.Value) (bool, error) {
					return t.Field(1).Equal(val.Str("article")), nil
				}).
				Map(func(t val.Value) (val.Value, error) { return t.Field(0), nil })
		}
		counts := visits.
			Map(func(x val.Value) (val.Value, error) { return val.Pair(x, val.Int(1)), nil }).
			ReduceByKey(func(a, b val.Value) (val.Value, error) {
				return val.Int(a.AsInt() + b.AsInt()), nil
			}).
			Cache()
		if s.WithDiff {
			if day != 1 {
				diffs := counts.Join(yesterday).Map(func(t val.Value) (val.Value, error) {
					d := t.Field(1).AsInt() - t.Field(2).AsInt()
					if d < 0 {
						d = -d
					}
					return val.Int(d), nil
				})
				sum, err := diffs.Sum() // action: launches a job
				if err != nil {
					return err
				}
				if err := st.WriteDataset(fmt.Sprintf("diff%d", day), []val.Value{sum}); err != nil {
					return err
				}
			} else if _, err := counts.Count(); err != nil { // materialize day 1
				return err
			}
		} else {
			if err := counts.SaveAsFile(fmt.Sprintf("counts%d", day)); err != nil {
				return err
			}
		}
		yesterday = counts
	}
	return nil
}

// RunFlinkNative executes Visit Count with flinklike's native iteration:
// one job, superstep barriers, loop-invariant hoisting via JoinStatic. The
// per-step file reads use the lenient step-indexed source (Flink's real
// API cannot express them — paper Sec. 2).
func RunFlinkNative(s VisitCountSpec, st store.Store, cl *cluster.Cluster, env *flinklike.Env) error {
	if env == nil {
		env = flinklike.NewEnv(cl, st)
	}
	var pageTypes *flinklike.DataSet
	if s.WithPageTypes {
		pageTypes = env.ReadFile("pageTypes")
	}
	initial := env.FromSlice(nil)
	_, err := env.Iterate(initial, s.Days, func(day int, yesterday *flinklike.DataSet) (*flinklike.DataSet, error) {
		visits := env.ReadFile(fmt.Sprintf("pageVisitLog%d", day))
		if s.WithPageTypes {
			tagged := visits.Map(func(x val.Value) (val.Value, error) {
				return val.Pair(x, val.Int(1)), nil
			}).JoinStatic(pageTypes) // (key, staticType, 1); table built once
			visits = tagged.
				Filter(func(t val.Value) (bool, error) {
					return t.Field(1).Equal(val.Str("article")), nil
				}).
				Map(func(t val.Value) (val.Value, error) { return t.Field(0), nil })
		}
		counts := visits.
			Map(func(x val.Value) (val.Value, error) { return val.Pair(x, val.Int(1)), nil }).
			ReduceByKey(func(a, b val.Value) (val.Value, error) {
				return val.Int(a.AsInt() + b.AsInt()), nil
			})
		if s.WithDiff {
			if day != 1 {
				diffs := counts.Join(yesterday).Map(func(t val.Value) (val.Value, error) {
					d := t.Field(1).AsInt() - t.Field(2).AsInt()
					if d < 0 {
						d = -d
					}
					return val.Int(d), nil
				})
				sum, err := diffs.Sum()
				if err != nil {
					return nil, err
				}
				if err := st.WriteDataset(fmt.Sprintf("diff%d", day), []val.Value{sum}); err != nil {
					return nil, err
				}
			}
		} else {
			if err := counts.WriteFile(fmt.Sprintf("counts%d", day)); err != nil {
				return nil, err
			}
		}
		return counts, nil
	})
	return err
}

// RunFlinkSeparateJobs executes Visit Count without native iterations: a
// fresh environment (= a fresh job launch) per day, like Spark but on the
// Flink-style API. No operator state survives between days.
func RunFlinkSeparateJobs(s VisitCountSpec, st store.Store, cl *cluster.Cluster) error {
	var yesterdayCounts []val.Value
	for day := 1; day <= s.Days; day++ {
		env := flinklike.NewEnv(cl, st)
		visits := env.ReadFile(fmt.Sprintf("pageVisitLog%d", day))
		if s.WithPageTypes {
			pageTypes := env.ReadFile("pageTypes")
			tagged := pageTypes.Join(visits.Map(func(x val.Value) (val.Value, error) {
				return val.Pair(x, val.Int(1)), nil
			}))
			visits = tagged.
				Filter(func(t val.Value) (bool, error) {
					return t.Field(1).Equal(val.Str("article")), nil
				}).
				Map(func(t val.Value) (val.Value, error) { return t.Field(0), nil })
		}
		counts := visits.
			Map(func(x val.Value) (val.Value, error) { return val.Pair(x, val.Int(1)), nil }).
			ReduceByKey(func(a, b val.Value) (val.Value, error) {
				return val.Int(a.AsInt() + b.AsInt()), nil
			})
		if s.WithDiff {
			if day != 1 {
				yesterday := env.FromSlice(yesterdayCounts)
				diffs := counts.Join(yesterday).Map(func(t val.Value) (val.Value, error) {
					d := t.Field(1).AsInt() - t.Field(2).AsInt()
					if d < 0 {
						d = -d
					}
					return val.Int(d), nil
				})
				sum, err := diffs.Sum()
				if err != nil {
					return err
				}
				if err := st.WriteDataset(fmt.Sprintf("diff%d", day), []val.Value{sum}); err != nil {
					return err
				}
			}
			collected, err := counts.Collect()
			if err != nil {
				return err
			}
			yesterdayCounts = collected
		} else {
			if err := counts.WriteFile(fmt.Sprintf("counts%d", day)); err != nil {
				return err
			}
		}
	}
	return nil
}
