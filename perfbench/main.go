// Command perfbench is the repository benchmark: one closed-loop client
// submits the same Mitos job back to back, with no think time, through the
// public API (mitos.Compile + Program.Run on the zero-delay simulated
// cluster, or Program.RunTCP on an in-process loopback TCP cluster). Every
// job's outputs are checked against an oracle before the job counts.
//
//	go run . --workload visitcount --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it also
// runs a traced pass that calls each layer directly, records spans around
// the calls and prints the per-layer metrics. The last line of standard
// output is the result object; see README.md for every metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/mitos-project/mitos"
	"github.com/mitos-project/mitos/internal/dfs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSizes))
}

func run(args []string, stdout, stderr io.Writer, sz sizes) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: steploop, steploop_tcp, visitcount or connected")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 adds the traced pass and prints per-layer metrics")
	spansPath := fs.String("spans", "", "where the traced pass writes its spans (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *spansPath == "" {
		*spansPath = fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.json", *workload, *seed)
	}
	in, err := newInstance(*workload, *seed, sz)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	e := provenance()
	e.Workload, e.Seed, e.Seconds, e.Trace, e.Input = *workload, *seed, *seconds, *trace == 1, in.inputDesc

	b := &bench{in: in, sz: sz, budget: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, spansPath: *spansPath}
	defer b.close()
	if err := b.run(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	envLine, _ := json.Marshal(e) // a struct of strings and numbers always marshals
	fmt.Fprintf(w, "env %s\n", envLine)
	for _, n := range b.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	b.rep.line("failed_frac", float64(b.failed)/float64(b.attempted), "frac")
	if err := b.rep.print(w, b.failed == 0, b.attempted, b.failed); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	in        *instance
	sz        sizes
	budget    time.Duration
	traced    bool
	spansPath string

	st         *dfs.Store
	coord      *mitos.TCPCoordinator
	closeCoord func()
	// sessionJobs and first track the jobs of the current TCP session, to
	// flag counters that accumulate across jobs.
	sessionJobs int
	first       *mitos.Result
	defectNoted bool

	attempted, failed int
	notes             []string
	rep               report
}

func (b *bench) close() {
	if b.closeCoord != nil {
		b.closeCoord()
		b.coord, b.closeCoord = nil, nil
	}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) run() error {
	var err error
	if b.st, err = b.in.newStore(); err != nil {
		return err
	}
	setups := make([]float64, b.sz.setups)
	for i := range setups {
		if setups[i], err = b.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	// Garbage left by input generation and the oracle is collected now,
	// not inside the first timed jobs.
	runtime.GC()
	loop := b.budget
	if b.traced {
		loop /= 2
	}
	samples := b.loop(loop)
	if len(samples) == 0 {
		return fmt.Errorf("no job succeeded (%d attempted)", b.attempted)
	}
	b.endToEnd(setups, samples)
	if b.traced {
		b.close() // the traced pass starts its own session
		return b.tracePass(b.budget-loop, samples)
	}
	return nil
}

// setup brings the system up and runs one warm-up job, returning the
// seconds it took. On TCP that is the coordinator with its workers
// registered and meshed; the simulated cluster starts inside each Run.
// Verifying the warm-up job is the benchmark's own work and not counted.
func (b *bench) setup() (float64, error) {
	b.close()
	var connect time.Duration
	if b.in.tcp {
		t0 := time.Now()
		c, stop, err := mitos.StartLocalTCP(machines, mitos.TCPCoordConfig{})
		if err != nil {
			return 0, err
		}
		connect = time.Since(t0)
		b.coord, b.closeCoord, b.sessionJobs = c, stop, 0
	}
	s, err := b.job()
	if err != nil {
		return 0, err
	}
	return connect.Seconds() + s.ms/1000, nil
}

// runJob is the timed region: Compile plus Run or RunTCP.
func (b *bench) runJob() (*mitos.Result, error) {
	prog, err := mitos.Compile(b.in.source)
	if err != nil {
		return nil, err
	}
	if b.coord != nil {
		return prog.RunTCP(b.coord, b.st, mitos.Config{})
	}
	return prog.Run(b.st, mitos.Config{Machines: machines})
}

// job runs one job: outputs are marked stale before the timed region and
// checked after it.
func (b *bench) job() (sample, error) {
	if err := b.in.poison(b.st); err != nil {
		return sample{}, err
	}
	var m meter
	m.start()
	res, err := b.runJob()
	steps := 0
	if res != nil {
		steps = res.Steps
	}
	s := m.stop(steps)
	if err != nil {
		return s, err
	}
	if b.coord != nil {
		if b.sessionJobs++; b.sessionJobs == 1 {
			b.first = res
		} else if b.sessionJobs == 2 {
			b.checkSession(b.first.CtrlMessages, b.first.SocketBytes, res.CtrlMessages, res.SocketBytes)
		}
	}
	return s, b.in.verify(b.st)
}

// checkSession flags the session-cumulative netcluster counters once per
// run: every job of a loop runs the same program, so job 2 of a session
// must report the control frames and socket bytes job 1 did.
func (b *bench) checkSession(ctrl1, sock1, ctrl2, sock2 int64) {
	if b.defectNoted || (ctrl1 == ctrl2 && sock1 == sock2) {
		return
	}
	b.defectNoted = true
	b.note("known_defect netcluster.Result counters are session-cumulative: job 1 of a session reported %d control frames and %d socket bytes, job 2 %d and %d; netcluster.* metrics come from job 1 of a fresh session",
		ctrl1, sock1, ctrl2, sock2)
}

// loop is the closed loop: one job after another until d has passed.
// Failed jobs count toward failed and contribute no latency sample.
func (b *bench) loop(d time.Duration) []sample {
	var out []sample
	deadline := time.Now().Add(d)
	for tries := 0; tries == 0 || time.Now().Before(deadline); tries++ {
		s, err := b.job()
		b.attempted++
		if err != nil {
			if b.failed == 0 {
				b.note("first failure: %v", err)
			}
			b.failed++
			continue
		}
		out = append(out, s)
	}
	return out
}

// endToEnd reports the user-visible metrics of the untraced loop. In a
// traced run they are printed but the result object carries the
// per-layer metrics instead.
func (b *bench) endToEnd(setups []float64, samples []sample) {
	add := b.rep.add
	if b.traced {
		add = b.rep.line
	}
	var ms []float64
	var wall, work, cpu, allocs float64
	for _, s := range samples {
		ms = append(ms, s.ms)
		wall += s.ms / 1000
		cpu += s.cpuMs
		allocs += float64(s.allocs)
		if b.in.inputElems > 0 {
			work += float64(b.in.inputElems)
		} else {
			work += float64(s.steps)
		}
	}
	n := float64(len(samples))
	tv, tpct, tn := tail(ms)
	add("setup_s", median(setups), "s")
	add("job_ms_p50", median(ms), "ms")
	add("job_ms_tail", tv, "ms")
	b.rep.line("job_ms_tail.percentile", tpct, "pct")
	b.rep.line("job_ms_tail.samples", float64(tn), "count")
	add("work_per_s", work/wall, "1/s")
	b.rep.line("work_per_job", work/n, b.in.workUnit())
	add("cpu_ms_per_job", cpu/n, "ms")
	add("allocs_per_job", allocs/n, "count")
	add("rss_peak_mb", peakRSSMB(), "MB")
}
