package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/obs/httpserve"
	"github.com/mitos-project/mitos/internal/store"
)

// Options configure one Mitos execution.
type Options struct {
	// Parallelism is the instance count of data-parallel operators;
	// 0 selects one instance per cluster machine.
	Parallelism int
	// Pipelining overlaps iteration steps (paper Sec. 5, Fig. 9 ablates it).
	Pipelining bool
	// Hoisting reuses loop-invariant join build state across iteration
	// steps (paper Sec. 5.3, Fig. 8 ablates it).
	Hoisting bool
	// Combiners inserts map-side partial aggregation ahead of shuffle and
	// gather edges (plan rewrite; see InsertCombiners). Savings multiply by
	// the iteration count, since Mitos re-runs these shuffles every step.
	Combiners bool
	// Chaining fuses forward edges into chained physical vertices
	// (BuildChains): elements cross fused edges by direct call instead of a
	// mailbox batch, removing the engine's per-hop overhead on the
	// per-step-critical forward paths.
	Chaining bool
	// Templates caches control-plane decisions as execution templates:
	// jump-chain path segments are resolved once per starting block and
	// re-instantiated by position patching, shipping one batched control
	// frame per worker per extension instead of one PathUpdate per
	// position. Effective only with Pipelining (non-pipelined execution
	// gates positions one at a time by construction).
	Templates bool
	// Delta keeps deltaMerge solution sets as incremental indexed state,
	// so each loop step costs O(|delta|) index work. False is the
	// -delta=off ablation: the same plan runs, but every step rebuilds its
	// solution set from scratch (O(|solution|) per step), modeling full
	// re-derivation. Outputs are identical either way.
	Delta bool
	// BatchSize overrides the engine's transfer batch size (0 = default).
	BatchSize int
	// Obs attaches an observability collector (metrics and optionally
	// tracing or bag lineage) to every layer of the execution. Nil
	// disables instrumentation; the disabled path costs one pointer check
	// per site.
	Obs *obs.Observer
	// HTTP registers the execution with a live introspection server
	// (/jobs, /jobs/{id}, /jobs/{id}/dot) and enables the per-edge queue
	// depth sampling those endpoints report. Nil disables registration.
	HTTP *httpserve.Server
}

// DefaultOptions enables every optimization: pipelining and hoisting as
// Mitos runs in the paper, plus map-side combiners, operator chaining,
// execution templates, and incremental delta-iteration state.
func DefaultOptions() Options {
	return Options{Pipelining: true, Hoisting: true, Combiners: true, Chaining: true, Templates: true, Delta: true}
}

// Result reports what one execution did.
type Result struct {
	// Steps is the execution path length (number of basic-block visits).
	Steps int
	// Duration is the wall-clock execution time (excluding planning).
	Duration time.Duration
	// Counters are the runtime counters of the run, merged across
	// machines by backends that run one partition per process.
	Counters
	// ChainedEdges counts plan edges fused by operator chaining;
	// Job.ElementsChained counts the elements that crossed them by direct
	// call.
	ChainedEdges int
	// TemplateInstalls and TemplateInstantiations count execution-template
	// cache misses (segment resolved and recorded) and hits (segment
	// re-broadcast by patching only the position). In a steady-state loop
	// every iteration is an instantiation.
	TemplateInstalls       int
	TemplateInstantiations int
	// DeltaSteps is the per-step delta series (aggregated across
	// instances), showing the frontier shrinking. Only the simulated
	// backend reports it; worker processes ship the totals in Counters.
	DeltaSteps []DeltaStep
}

// Counters is the counter record one execution produces: operator-host
// counters, delta-iteration totals, and the engine's transfer counters.
// Every backend reports the same record; the TCP backend sums one per
// worker with Merge.
type Counters struct {
	// Job reports engine transfer counters.
	Job dataflow.JobStats
	// JoinBuilds counts hash-table build phases executed by join operator
	// instances. With hoisting, a loop-invariant build side is built once
	// per instance instead of once per iteration step.
	JoinBuilds int64
	// MaxBufferedBags is the largest number of input bags any operator
	// instance held at once — the garbage-collection rule of Sec. 5.2.4
	// keeps it bounded regardless of the iteration count.
	MaxBufferedBags int64
	// CombineIn and CombineOut count elements entering and leaving map-side
	// combiners; their ratio is the local aggregation factor, and the
	// difference is the element traffic the shuffles were spared.
	CombineIn  int64
	CombineOut int64
	// Delta-iteration totals across all deltaMerge operators: delta
	// elements received, changed pairs emitted, index operations, and the
	// final solution-set size.
	DeltaIn       int64
	DeltaChanged  int64
	DeltaTouched  int64
	DeltaElements int64
	DeltaBytes    int64
}

// Merge adds o into c: every counter sums, except MaxBufferedBags, which
// is a high-water mark and takes the maximum.
func (c *Counters) Merge(o Counters) {
	c.Job.Add(o.Job)
	c.JoinBuilds += o.JoinBuilds
	c.MaxBufferedBags = max(c.MaxBufferedBags, o.MaxBufferedBags)
	c.CombineIn += o.CombineIn
	c.CombineOut += o.CombineOut
	c.DeltaIn += o.DeltaIn
	c.DeltaChanged += o.DeltaChanged
	c.DeltaTouched += o.DeltaTouched
	c.DeltaElements += o.DeltaElements
	c.DeltaBytes += o.DeltaBytes
}

// runtime is the state shared by all operator hosts and the coordinator of
// one execution.
type runtime struct {
	plan  *Plan
	store store.Store
	cl    *cluster.Cluster
	opts  Options
	obs   *obs.Observer
	// emit delivers one control-plane event from an operator host. The
	// single-process backend points it straight at Coordinator.OnEvent —
	// the path extension and broadcast run inline on the deciding host's
	// goroutine, cutting a goroutine wake-up from every step. Worker
	// processes point it at the events channel their forwarder drains.
	emit   func(CoordEvent)
	events chan CoordEvent

	joinBuilds  atomic.Int64
	maxBuffered atomic.Int64
	combineIn   atomic.Int64
	combineOut  atomic.Int64

	// stateStores holds the per-(deltaMerge, instance) solution-set
	// partitions, created lazily at host Open (see delta.go).
	stateMu     sync.Mutex
	stateStores map[stateKey]*solutionStore
}

// noteBuffered records a high-water mark of buffered input bags.
func (rt *runtime) noteBuffered(n int64) {
	for {
		cur := rt.maxBuffered.Load()
		if n <= cur || rt.maxBuffered.CompareAndSwap(cur, n) {
			return
		}
	}
}

// counters reads the run's counter record: this runtime's host counters,
// the delta totals of its solution stores, and job's engine counters. It
// also returns the per-step delta series the totals were summed from.
func (rt *runtime) counters(job *dataflow.Job) (Counters, []DeltaStep) {
	c := Counters{
		Job:             job.Stats(),
		JoinBuilds:      rt.joinBuilds.Load(),
		MaxBufferedBags: rt.maxBuffered.Load(),
		CombineIn:       rt.combineIn.Load(),
		CombineOut:      rt.combineOut.Load(),
	}
	steps := rt.deltaSummary(&c)
	return c, steps
}

// Execute compiles the SSA graph into a single cyclic dataflow job, runs it
// on the cluster against the dataset store, and coordinates the distributed
// control flow.
func Execute(g *ir.Graph, st store.Store, cl *cluster.Cluster, opts Options) (*Result, error) {
	plan, err := PlanFor(g, opts, cl.Machines())
	if err != nil {
		return nil, err
	}
	return ExecutePlan(plan, st, cl, opts)
}

// ExecutePlan runs an already-built plan (Execute builds one with PlanFor).
// The plan's parallelism must match opts; plan rewrites (InsertCombiners,
// BuildChains) are the caller's responsibility.
func ExecutePlan(plan *Plan, st store.Store, cl *cluster.Cluster, opts Options) (*Result, error) {
	rt := &runtime{
		plan:  plan,
		store: st,
		cl:    cl,
		opts:  opts,
		obs:   opts.Obs,
	}
	if opts.Obs != nil {
		cl.SetObserver(opts.Obs)
		// Stores that can account their own I/O (internal/dfs) join in.
		if so, ok := st.(interface{ SetObserver(*obs.Observer) }); ok {
			so.SetObserver(opts.Obs)
		}
	}

	job, err := dataflow.NewJob(buildDataflowGraph(rt, plan), cl, opts.BatchSize)
	if err != nil {
		return nil, err
	}
	job.Observe(opts.Obs)
	if opts.HTTP != nil {
		job.EnableIntrospection()
	}
	opts.Obs.Lin().Begin()
	start := time.Now()
	if err := job.Start(); err != nil {
		return nil, err
	}
	var jv *jobView
	if opts.HTTP != nil {
		jv = &jobView{rt: rt, job: job, started: start}
		opts.HTTP.Register(jv)
	}

	cp := &simControlPlane{cl: cl, job: job}
	co := NewCoordinator(plan, opts, cl.Machines(), cp)
	rt.emit = co.OnEvent
	co.Seed()

	err = job.Wait()
	cstats := co.Stats()
	if jv != nil {
		jv.finish(err)
	}
	if err != nil {
		return nil, fmt.Errorf("core: execution failed: %w", err)
	}
	counters, deltaSteps := rt.counters(job)
	return &Result{
		Steps:                  cstats.Steps,
		Duration:               time.Since(start),
		Counters:               counters,
		ChainedEdges:           plan.ChainedEdges(),
		TemplateInstalls:       cstats.TemplateInstalls,
		TemplateInstantiations: cstats.TemplateInstantiations,
		DeltaSteps:             deltaSteps,
	}, nil
}

// buildDataflowGraph translates the plan into a dataflow graph: one vertex
// per SSA instruction, one edge per variable reference (paper Sec. 4.3).
func buildDataflowGraph(rt *runtime, plan *Plan) *dataflow.Graph {
	var g dataflow.Graph
	dfOps := make([]*dataflow.Op, len(plan.Ops))
	for _, pop := range plan.Ops {
		pop := pop
		dfOps[pop.ID] = g.AddOp(pop.Instr.Var, pop.Par, func(inst int) dataflow.Vertex {
			return newHost(rt, pop, inst)
		})
	}
	for _, pop := range plan.Ops {
		for slot, in := range pop.Inputs {
			if in.Chained {
				g.ConnectChained(dfOps[in.Producer.ID], dfOps[pop.ID], slot)
			} else {
				g.Connect(dfOps[in.Producer.ID], dfOps[pop.ID], slot, in.Part)
			}
		}
	}
	return &g
}

// simControlPlane runs the control-flow manager against the simulated
// cluster: broadcasts pay the modeled control-message latency once per
// machine and land directly in the job's mailboxes.
type simControlPlane struct {
	cl  *cluster.Cluster
	job *dataflow.Job
}

func (s *simControlPlane) Broadcast(up PathUpdate) {
	// One control message per machine, as the per-machine control-flow
	// managers relay the decision (paper: TCP connections independent
	// of the dataflow edges).
	n := up.CtrlSize()
	for m := 0; m < s.cl.Machines(); m++ {
		s.cl.CtrlSleepBytes(n)
	}
	s.job.Broadcast(up)
}

func (s *simControlPlane) BroadcastSegment(seg PathSegment) {
	// The whole instantiated template is one control message per machine;
	// the fan-out to instances happens locally in Job.Broadcast.
	n := seg.CtrlSize()
	for m := 0; m < s.cl.Machines(); m++ {
		s.cl.CtrlSleepBytes(n)
	}
	s.job.Broadcast(seg)
}

func (s *simControlPlane) Barrier() { s.cl.Barrier() }

func (s *simControlPlane) Stop(err error) { s.job.Stop(err) }

// WorkerJob is one machine's share of a plan, hosted by a worker process of
// the TCP cluster backend: the partitioned dataflow job plus the stream of
// control-plane events (decisions, completions) the local operator hosts
// produce. The worker forwards Events to the coordinator and injects the
// coordinator's PathUpdates via Job.Broadcast.
type WorkerJob struct {
	Job    *dataflow.Job
	Events <-chan CoordEvent

	rt *runtime
}

// NewWorkerJob builds machine self's partition of the plan as a dataflow
// job. Only instances placed on self (instance index mod machines) are
// hosted; cross-machine edges route through remote. The plan must be built
// identically on every worker (same source, same options) so operator IDs
// and placement agree — BuildPlan is deterministic, which is what makes
// shipping program source instead of serialized plans sound.
func NewWorkerJob(plan *Plan, st store.Store, machines, self int, opts Options, remote dataflow.Remote) (*WorkerJob, error) {
	rt := &runtime{
		plan:   plan,
		store:  st,
		opts:   opts,
		obs:    opts.Obs,
		events: make(chan CoordEvent, 4096),
	}
	rt.emit = func(ev CoordEvent) { rt.events <- ev }
	job, err := dataflow.NewPartitionedJob(buildDataflowGraph(rt, plan), machines, self, opts.BatchSize, remote)
	if err != nil {
		return nil, err
	}
	job.Observe(opts.Obs)
	return &WorkerJob{Job: job, Events: rt.events, rt: rt}, nil
}

// Counters reports the counter record of this worker's partition: its
// hosts' counters, the delta totals of its local solution stores, and its
// engine counters. Per-step delta series stay local to the worker.
func (w *WorkerJob) Counters() Counters {
	c, _ := w.rt.counters(w.Job)
	return c
}
