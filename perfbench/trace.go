package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/mitos-project/mitos"
	"github.com/mitos-project/mitos/internal/cluster"
	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/dataflow"
	"github.com/mitos-project/mitos/internal/dfs"
	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/lang"
	"github.com/mitos-project/mitos/internal/netcluster"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/obs/lineage"
	"github.com/mitos-project/mitos/internal/val"
)

// The traced pass. It runs the workload's job by calling the layers one
// by one — lang.Parse and Check, ir.CompileToSSA, the plan rewrites, then
// core.ExecutePlan on a fresh simulated cluster or Coordinator.Run on a
// fresh loopback session — with the lineage observer attached, and records
// a span around every call. Spans are kept in memory and written out when
// the pass ends.

// span is one timed call. Spans of one job share Job; Parent is the ID of
// the enclosing span, -1 for a job's root.
type span struct {
	Job    int    `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) begin(job, parent int, name string) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{Job: job, ID: id, Parent: parent, Name: name, Start: time.Since(l.epoch).Nanoseconds()})
	return id
}

func (l *spanLog) end(id int) { l.spans[id].End = time.Since(l.epoch).Nanoseconds() }

// call runs f inside a span.
func (l *spanLog) call(job, parent int, name string, f func() error) error {
	id := l.begin(job, parent, name)
	err := f()
	l.end(id)
	return err
}

// selfTimes splits one job's root span into the self time of every span
// name (its duration minus the part its children cover) and returns the
// root's duration. The root's own self time is reported as "residual":
// the gaps between layer calls. Self times plus residual add up to the
// root's duration.
func selfTimes(spans []span, job int) (total int64, self map[string]int64) {
	self = map[string]int64{}
	children := map[int]int64{}
	for _, s := range spans {
		if s.Job == job && s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range spans {
		if s.Job != job {
			continue
		}
		name := s.Name
		if s.Parent < 0 {
			name, total = "residual", s.End-s.Start
		}
		self[name] += s.End - s.Start - children[s.ID]
	}
	return total, self
}

// tracedJob is what one traced job reported, from whichever backend ran it.
type tracedJob struct {
	id                          int // the job's span ID
	planOps, combiners, chained int

	steps                   int
	tmplInstalls, tmplHits  int
	joinBuilds, maxBuffered int64
	combineIn, combineOut   int64
	deltaIn, deltaChanged   int64
	deltaTouched            int64
	deltaElems, deltaBytes  int64
	engine                  dataflow.JobStats
	cl                      cluster.Stats
	dfs                     dfs.Stats
	cp                      *lineage.CriticalPath

	// Loopback TCP only: coordinator-link control frames, data-plane
	// socket bytes and credit stalls, and execution attempts.
	netFrames, netBytes int64
	socketBytes, stalls int64
	stallTime           time.Duration
	attempts            int
}

// tracedJobRun runs job id of the traced pass. Outputs are marked stale
// before the root span and checked after it.
func (b *bench) tracedJobRun(l *spanLog, id int, coord *netcluster.Coordinator) (*tracedJob, error) {
	if err := b.in.poison(b.st); err != nil {
		return nil, err
	}
	o := obs.New().EnableLineage()
	opts := core.DefaultOptions()
	opts.Obs = o
	before := b.st.Stats()
	tj := &tracedJob{id: id}
	var (
		ast  *lang.Program
		g    *ir.Graph
		plan *core.Plan
	)
	root := l.begin(id, -1, "job")
	err := l.call(id, root, "lang.parse", func() (err error) { ast, err = lang.Parse(b.in.source); return err })
	if err == nil {
		err = l.call(id, root, "lang.check", func() error { _, err := lang.Check(ast); return err })
	}
	if err == nil {
		err = l.call(id, root, "ir.ssa", func() (err error) { g, err = ir.CompileToSSA(ast); return err })
	}
	if err == nil {
		err = l.call(id, root, "core.plan", func() (err error) {
			if plan, err = core.BuildPlan(g, machines); err != nil {
				return err
			}
			tj.combiners = plan.InsertCombiners()
			tj.chained = plan.BuildChains()
			tj.planOps = len(plan.Ops)
			return nil
		})
	}
	if err == nil && coord != nil {
		err = l.call(id, root, "netcluster.run", func() error {
			res, err := coord.Run(b.in.source, b.st, opts)
			if err != nil {
				return err
			}
			tj.steps, tj.tmplInstalls, tj.tmplHits = res.Steps, res.TemplateInstalls, res.TemplateInstantiations
			tj.joinBuilds, tj.maxBuffered, tj.combineIn, tj.combineOut = res.JoinBuilds, res.MaxBufferedBags, res.CombineIn, res.CombineOut
			tj.deltaIn, tj.deltaChanged, tj.deltaTouched = res.DeltaIn, res.DeltaChanged, res.DeltaTouched
			tj.deltaElems, tj.deltaBytes, tj.engine = res.DeltaElements, res.DeltaBytes, res.Job
			tj.netFrames, tj.netBytes, tj.socketBytes = res.CtrlMessages, res.CtrlBytes, res.SocketBytes
			tj.stalls, tj.stallTime, tj.attempts = res.CreditStalls, res.CreditStallTime, res.Attempts
			return nil
		})
	} else if err == nil {
		var cl *cluster.Cluster
		err = l.call(id, root, "cluster.new", func() (err error) { cl, err = cluster.New(cluster.FastConfig(machines)); return err })
		if err == nil {
			err = l.call(id, root, "core.execute", func() error {
				res, err := core.ExecutePlan(plan, b.st, cl, opts)
				if err != nil {
					return err
				}
				tj.steps, tj.tmplInstalls, tj.tmplHits = res.Steps, res.TemplateInstalls, res.TemplateInstantiations
				tj.joinBuilds, tj.maxBuffered, tj.combineIn, tj.combineOut = res.JoinBuilds, res.MaxBufferedBags, res.CombineIn, res.CombineOut
				tj.deltaIn, tj.deltaChanged, tj.deltaTouched = res.DeltaIn, res.DeltaChanged, res.DeltaTouched
				tj.deltaElems, tj.deltaBytes, tj.engine = res.DeltaElements, res.DeltaBytes, res.Job
				tj.attempts = 1
				return nil
			})
			_ = l.call(id, root, "cluster.close", func() error { cl.Close(); return nil })
			tj.cl = cl.Stats()
		}
	}
	l.end(root)
	b.st.SetObserver(nil) // ExecutePlan attached the observer to the store
	if err != nil {
		return nil, err
	}
	after := b.st.Stats()
	tj.dfs = dfs.Stats{Opens: after.Opens - before.Opens, BlocksRead: after.BlocksRead - before.BlocksRead, BytesRead: after.BytesRead - before.BytesRead}
	tj.cp = lineage.Analyze(o.Lin().Snapshot())
	if tj.engine.MailboxDropped != 0 {
		return nil, fmt.Errorf("%d envelopes dropped by closed mailboxes", tj.engine.MailboxDropped)
	}
	if err := b.in.verify(b.st); err != nil {
		return nil, err
	}
	return tj, nil
}

// tracePass runs traced jobs for d and reports the per-layer metrics.
// untraced holds the untraced loop's samples of the same run.
func (b *bench) tracePass(d time.Duration, untraced []sample) error {
	l := &spanLog{epoch: time.Now()}
	// A fresh loopback session for the TCP jobs. The sim workloads start
	// one too and close it at once: netcluster.connect_ms is the cost of
	// bringing the cluster up, whichever backend the jobs use.
	var coord *netcluster.Coordinator
	var stop func()
	err := l.call(0, -1, "netcluster.connect", func() (err error) {
		coord, stop, err = netcluster.StartLocal(machines, netcluster.CoordConfig{})
		return err
	})
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	connectMs := float64(l.spans[0].End-l.spans[0].Start) / 1e6
	if b.in.tcp {
		defer stop()
	} else {
		stop()
		coord = nil
	}
	var jobs []*tracedJob
	deadline := time.Now().Add(d)
	// At least two jobs, so job 2 of the fresh session can be compared
	// with job 1.
	for id := 1; id <= 2 || time.Now().Before(deadline); id++ {
		tj, err := b.tracedJobRun(l, id, coord)
		b.attempted++
		if err != nil {
			if b.failed == 0 {
				b.note("first failure (traced): %v", err)
			}
			b.failed++
			continue
		}
		jobs = append(jobs, tj)
		if coord != nil && id == 2 && len(jobs) == 2 {
			b.checkSession(jobs[0].netFrames, jobs[0].socketBytes, jobs[1].netFrames, jobs[1].socketBytes)
		}
	}
	if len(jobs) == 0 {
		return fmt.Errorf("traced pass: no job succeeded")
	}
	if err := writeSpans(b.spansPath, l.spans); err != nil {
		return err
	}
	return b.layerMetrics(l, jobs, untraced, connectMs)
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics. Times are medians over the
// successful traced jobs; counts come from the first of them, on TCP the
// first job of a fresh session unless that one failed.
func (b *bench) layerMetrics(l *spanLog, jobs []*tracedJob, untraced []sample, connectMs float64) error {
	add := b.rep.add
	var jobMs []float64
	layerUs := map[string][]float64{}
	for _, tj := range jobs {
		total, self := selfTimes(l.spans, tj.id)
		jobMs = append(jobMs, float64(total)/1e6)
		for name, ns := range self {
			layerUs[name] = append(layerUs[name], float64(ns)/1e3)
		}
		layerUs["lang.parse_check"] = append(layerUs["lang.parse_check"], float64(self["lang.parse"]+self["lang.check"])/1e3)
	}
	// Layer self times of the traced job, printed for the breakdown.
	var names []string
	for name := range layerUs {
		if name != "lang.parse_check" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b.rep.line("self."+name+"_ms", median(layerUs[name])/1e3, "ms")
	}
	b.rep.line("trace.job_ms_p50", median(jobMs), "ms")

	j := jobs[0]
	steps := float64(j.steps)
	add("lang.parse_check_us", median(layerUs["lang.parse_check"]), "us")
	add("ir.ssa_us", median(layerUs["ir.ssa"]), "us")
	add("core.plan_us", median(layerUs["core.plan"]), "us")
	add("core.plan_ops", float64(j.planOps), "count")
	add("core.combiners_inserted", float64(j.combiners), "count")
	add("core.chained_edges", float64(j.chained), "count")
	add("core.steps", steps, "count")
	add("core.ctrl_msgs_per_step", ratio(float64(j.engine.CtrlMessages), steps), "count/step")
	add("core.ctrl_bytes_per_step", ratio(float64(j.engine.CtrlBytes), steps), "B/step")
	add("core.template_hit_ratio", ratio(float64(j.tmplHits), float64(j.tmplHits+j.tmplInstalls)), "ratio")
	add("core.join_builds", float64(j.joinBuilds), "count")
	add("core.combine_ratio", ratio(float64(j.combineIn), float64(j.combineOut)), "ratio")
	add("core.max_buffered_bags", float64(j.maxBuffered), "count")
	add("core.delta_touched_per_in", ratio(float64(j.deltaTouched), float64(j.deltaIn)), "ratio")
	add("core.delta_changed_per_in", ratio(float64(j.deltaChanged), float64(j.deltaIn)), "ratio")
	add("core.solution_elements", float64(j.deltaElems), "count")
	add("core.solution_bytes", float64(j.deltaBytes), "B")

	e := j.engine
	add("dataflow.elements_sent", float64(e.ElementsSent), "count")
	add("dataflow.batches_sent", float64(e.BatchesSent), "count")
	add("dataflow.elements_per_batch", ratio(float64(e.ElementsSent-e.ElementsChained), float64(e.BatchesSent)), "count")
	add("dataflow.chained_frac", ratio(float64(e.ElementsChained), float64(e.ElementsSent)), "frac")
	add("dataflow.remote_batches", float64(e.RemoteBatches), "count")
	add("dataflow.bytes_sent", float64(e.BytesSent), "B")
	add("dataflow.mailbox_dropped", float64(e.MailboxDropped), "count")

	sample, err := b.codecSample()
	if err != nil {
		return err
	}
	enc, dec, per := codecCost(sample)
	add("val.encode_ns_per_elem", enc, "ns")
	add("val.decode_ns_per_elem", dec, "ns")
	add("val.bytes_per_elem", per, "B")

	add("cluster.net_batches", float64(j.cl.NetBatches), "count")
	add("cluster.net_bytes", float64(j.cl.NetBytes), "B")
	add("cluster.ctrl_messages", float64(j.cl.CtrlMessages), "count")

	add("dfs.opens", float64(j.dfs.Opens), "count")
	add("dfs.blocks_read", float64(j.dfs.BlocksRead), "count")
	add("dfs.bytes_read", float64(j.dfs.BytesRead), "B")
	readMs, err := b.dfsReadMs()
	if err != nil {
		return err
	}
	add("dfs.read_ms", readMs, "ms")

	add("netcluster.connect_ms", connectMs, "ms")
	add("netcluster.ctrl_frames_per_step", ratio(float64(j.netFrames), steps), "count/step")
	add("netcluster.ctrl_bytes_per_step", ratio(float64(j.netBytes), steps), "B/step")
	add("netcluster.socket_bytes_per_payload_byte", ratio(float64(j.socketBytes), float64(e.BytesSent)), "ratio")
	add("netcluster.credit_stalls", float64(j.stalls), "count")
	// Printed only: no workload stalls at this commit, and a time that
	// reads 0 on every run carries no measurement.
	b.rep.line("netcluster.credit_stall_ms", float64(j.stallTime.Nanoseconds())/1e6, "ms")
	add("netcluster.attempts", float64(j.attempts), "count")

	var allocs, allocBytes, gcs, pauseNs, usteps float64
	var ums []float64
	for _, s := range untraced {
		allocs += float64(s.allocs)
		allocBytes += float64(s.allocBytes)
		gcs += float64(s.gcs)
		pauseNs += float64(s.gcPauseNs)
		usteps += float64(s.steps)
		ums = append(ums, s.ms)
	}
	n := float64(len(untraced))
	add("runtime.allocs_per_step", ratio(allocs, usteps), "count")
	add("runtime.gc_cycles_per_job", gcs/n, "count")
	add("runtime.gc_pause_ms_per_job", pauseNs/n/1e6, "ms")
	add("runtime.alloc_mb_per_job", allocBytes/n/(1<<20), "MB")

	var comp, shuf, barr, stall, overlap, attr []float64
	for _, tj := range jobs {
		cp, wall := tj.cp, float64(tj.cp.Wall)
		comp = append(comp, ratio(float64(cp.Compute), wall))
		shuf = append(shuf, ratio(float64(cp.Shuffle), wall))
		barr = append(barr, ratio(float64(cp.Barrier), wall))
		stall = append(stall, ratio(float64(cp.Stall), wall))
		overlap = append(overlap, ratio(float64(cp.OverlapSum), float64(cp.SpanSum)))
		attr = append(attr, cp.AttributedFraction)
	}
	add("critpath.compute_frac", median(comp), "frac")
	add("critpath.shuffle_frac", median(shuf), "frac")
	add("critpath.barrier_frac", median(barr), "frac")
	add("critpath.stall_frac", median(stall), "frac")
	add("critpath.overlap_frac", median(overlap), "frac")
	add("critpath.attributed_frac", median(attr), "frac")

	seqMs, err := b.sequentialMs()
	if err != nil {
		return err
	}
	add("baseline.sequential_ms", seqMs, "ms")
	add("trace.overhead_frac", median(jobMs)/median(ums)-1, "frac")
	return nil
}

// codecSample is up to 4096 of the workload's own elements: its inputs,
// or the last traced job's verified outputs when it reads none.
func (b *bench) codecSample() ([]val.Value, error) {
	var all []val.Value
	for _, name := range sortedNames(b.in.inputs) {
		all = append(all, b.in.inputs[name]...)
	}
	if len(all) == 0 {
		for name := range b.in.want {
			out, err := b.st.ReadDataset(name)
			if err != nil {
				return nil, err
			}
			all = append(all, out...)
		}
	}
	const max = 4096
	if len(all) <= max {
		return all, nil
	}
	sample := make([]val.Value, 0, max)
	for i := 0; i < max; i++ {
		sample = append(sample, all[i*len(all)/max])
	}
	return sample, nil
}

// codecCost times val.AppendBinary and val.DecodeBinary over the sample,
// repeating it for at least 20 ms each.
func codecCost(sample []val.Value) (encNs, decNs, bytesPerElem float64) {
	if len(sample) == 0 {
		return 0, 0, 0
	}
	const minDur = 20 * time.Millisecond
	// Each pass covers at least 4096 elements, so reading the clock
	// between passes costs nothing measurable.
	reps := (4096 + len(sample) - 1) / len(sample)
	var buf []byte
	elems := 0
	t0 := time.Now()
	for time.Since(t0) < minDur {
		for r := 0; r < reps; r++ {
			buf = buf[:0]
			for _, v := range sample {
				buf = val.AppendBinary(buf, v)
			}
		}
		elems += reps * len(sample)
	}
	encNs = float64(time.Since(t0).Nanoseconds()) / float64(elems)
	bytesPerElem = float64(len(buf)) / float64(len(sample))
	elems = 0
	t0 = time.Now()
	for time.Since(t0) < minDur {
		for r := 0; r < reps; r++ {
			for off := 0; off < len(buf); {
				_, n, err := val.DecodeBinary(buf[off:])
				if err != nil {
					return encNs, 0, bytesPerElem
				}
				off += n
			}
		}
		elems += reps * len(sample)
	}
	decNs = float64(time.Since(t0).Nanoseconds()) / float64(elems)
	return encNs, decNs, bytesPerElem
}

// dfsReadMs times ReadDatasetPartition over every dataset in the store,
// inputs and outputs, and every partition: the median of five passes.
func (b *bench) dfsReadMs() (float64, error) {
	names := b.st.Names()
	var passes []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		for _, name := range names {
			for p := 0; p < machines; p++ {
				if _, err := b.st.ReadDatasetPartition(name, p, machines); err != nil {
					return 0, err
				}
			}
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(passes), nil
}

// sequentialMs times Program.RunSequential, the single-threaded baseline,
// on the same inputs: the median of three runs.
func (b *bench) sequentialMs() (float64, error) {
	prog, err := mitos.Compile(b.in.source)
	if err != nil {
		return 0, err
	}
	var runs []float64
	for i := 0; i < 3; i++ {
		st := memStoreWith(b.in.inputs)
		t0 := time.Now()
		if err := prog.RunSequential(st); err != nil {
			return 0, err
		}
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(runs), nil
}
