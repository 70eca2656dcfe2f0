package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// tinySizes keeps every workload to a few milliseconds per job.
var tinySizes = sizes{
	stepIters: 20, stepTCPIters: 20,
	vcDays: 3, vcVisits: 200, vcPages: 50, vcTypes: 100,
	ccPairs: 50, ccChains: 2, ccChainLen: 6,
	setups: 2,
}

// Every metric the benchmark defines, end-to-end and per layer.
var (
	endToEndNames = []string{"setup_s", "job_ms_p50", "job_ms_tail", "work_per_s", "cpu_ms_per_job",
		"allocs_per_job", "rss_peak_mb", "failed_frac"}
	layerNames = []string{
		"lang.parse_check_us", "ir.ssa_us", "core.plan_us",
		"core.plan_ops", "core.combiners_inserted", "core.chained_edges",
		"core.steps", "core.ctrl_msgs_per_step", "core.ctrl_bytes_per_step", "core.template_hit_ratio",
		"core.join_builds", "core.combine_ratio", "core.max_buffered_bags",
		"core.delta_touched_per_in", "core.delta_changed_per_in", "core.solution_elements", "core.solution_bytes",
		"dataflow.elements_sent", "dataflow.batches_sent", "dataflow.elements_per_batch", "dataflow.chained_frac",
		"dataflow.remote_batches", "dataflow.bytes_sent", "dataflow.mailbox_dropped",
		"val.encode_ns_per_elem", "val.decode_ns_per_elem", "val.bytes_per_elem",
		"cluster.net_batches", "cluster.net_bytes", "cluster.ctrl_messages",
		"dfs.opens", "dfs.blocks_read", "dfs.bytes_read", "dfs.read_ms",
		"netcluster.connect_ms", "netcluster.ctrl_frames_per_step", "netcluster.ctrl_bytes_per_step",
		"netcluster.socket_bytes_per_payload_byte", "netcluster.credit_stalls", "netcluster.credit_stall_ms",
		"netcluster.attempts",
		"runtime.allocs_per_step", "runtime.gc_cycles_per_job", "runtime.gc_pause_ms_per_job", "runtime.alloc_mb_per_job",
		"critpath.compute_frac", "critpath.shuffle_frac", "critpath.barrier_frac", "critpath.stall_frac",
		"critpath.overlap_frac", "critpath.attributed_frac",
		"baseline.sequential_ms", "trace.overhead_frac",
	}
)

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// parseOutput returns the printed metric lines (name -> unit) and the
// result object on the last line.
func parseOutput(t *testing.T, out string) (map[string]string, result) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) == 4 && f[0] == "metric" {
			printed[f[1]] = f[3]
		}
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return printed, r
}

func TestAllWorkloadsTiny(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.json")
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w, "--seed", "7", "--seconds", "0.3", "--trace", trace, "--spans", spans}
				if code := run(args, &stdout, &stderr, tinySizes); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				printed, r := parseOutput(t, stdout.String())
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, stdout.String())
				}
				want := endToEndNames
				list := decl.EndToEnd
				if trace == "1" {
					want = append(append([]string(nil), endToEndNames...), layerNames...)
					list = decl.PerLayer
				}
				for _, name := range want {
					if printed[name] == "" {
						t.Errorf("metric %s not printed with a unit", name)
					}
				}
				// The result object carries exactly the declared metrics,
				// in the declared units.
				if len(r.Metrics) != len(list) {
					t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(list))
				}
				for _, d := range list {
					if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("declared metric %s [%s]: got %+v (present %v)", d.Name, d.Unit, m, ok)
					}
				}
				if trace == "1" {
					checkSpans(t, spans, w)
				}
			})
		}
	}
}

// checkSpans asserts that every traced job's spans nest inside its root
// and that layer self times plus the residual add up to the job time.
func checkSpans(t *testing.T, path, workload string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	roots := map[int]span{}
	for _, s := range spans {
		if s.Job > 0 && s.Parent < 0 {
			roots[s.Job] = s
		}
	}
	if len(roots) < 2 {
		t.Fatalf("%d traced jobs, want at least 2", len(roots))
	}
	engine := "core.execute"
	if workload == "steploop_tcp" || workload == "connected" {
		engine = "netcluster.run"
	}
	for id, root := range roots {
		seen := map[string]bool{}
		for _, s := range spans {
			if s.Job != id || s.Parent < 0 {
				continue
			}
			seen[s.Name] = true
			if s.Start < root.Start || s.End > root.End || s.End < s.Start {
				t.Errorf("job %d: span %s [%d,%d] outside its root [%d,%d]", id, s.Name, s.Start, s.End, root.Start, root.End)
			}
		}
		for _, name := range []string{"lang.parse", "lang.check", "ir.ssa", "core.plan", engine} {
			if !seen[name] {
				t.Errorf("job %d: no %s span", id, name)
			}
		}
		total, self := selfTimes(spans, id)
		var sum int64
		for _, ns := range self {
			sum += ns
		}
		if _, ok := self["residual"]; !ok || sum != total || total != root.End-root.Start {
			t.Errorf("job %d: self times %v add up to %d ns, job took %d", id, self, sum, root.End-root.Start)
		}
	}
}

// TestCorruptOutputCountsAsFailed is the negative control: a job whose
// output is wrong, or missing so the stale marker remains, must count as
// failed.
func TestCorruptOutputCountsAsFailed(t *testing.T) {
	for name, tamper := range map[string]func(store.Store){
		"wrong":   func(st store.Store) { _ = st.WriteDataset("out", []val.Value{val.Int(-1)}) },
		"missing": func(st store.Store) { _ = st.WriteDataset("out", staleOutput) },
		"extra": func(st store.Store) {
			elems, _ := st.ReadDataset("out")
			_ = st.WriteDataset("out", append(elems, val.Int(0)))
		},
	} {
		t.Run(name, func(t *testing.T) {
			in, err := newInstance("steploop", 3, tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			b := &bench{in: in, sz: tinySizes}
			defer b.close()
			if b.st, err = in.newStore(); err != nil {
				t.Fatal(err)
			}
			if _, err := b.setup(); err != nil {
				t.Fatal(err)
			}
			if ok := b.loop(50 * time.Millisecond); len(ok) == 0 || b.failed != 0 {
				t.Fatalf("clean loop: %d ok, %d failed", len(ok), b.failed)
			}
			in.tamper = tamper
			b.attempted, b.failed = 0, 0
			if ok := b.loop(50 * time.Millisecond); len(ok) != 0 || b.failed != b.attempted || b.failed == 0 {
				t.Fatalf("tampered loop: %d ok, %d of %d failed", len(ok), b.failed, b.attempted)
			}
		})
	}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	for _, w := range workloadNames {
		a, err := newInstance(w, 5, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newInstance(w, 5, tinySizes)
		c, _ := newInstance(w, 6, tinySizes)
		fingerprint := func(in *instance) string {
			raw, _ := json.Marshal(in.want)
			s := in.source + string(raw)
			for _, name := range sortedNames(in.inputs) {
				s += name + strings.Join(canonical(in.inputs[name]), ",")
			}
			return s
		}
		if fingerprint(a) != fingerprint(b) {
			t.Errorf("%s: the same seed gave different inputs", w)
		}
		if fingerprint(a) == fingerprint(c) {
			t.Errorf("%s: seeds 5 and 6 gave the same inputs", w)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct, n := tail(xs); v != 90 || pct != 90 || n != 100 {
		t.Errorf("tail of 1..100 = %v at p%v of %d, want 90 at p90 of 100", v, pct, n)
	}
	if v, pct, _ := tail(xs[:5]); v != 5 || pct != 100 {
		t.Errorf("tail of 5 samples = %v at p%v, want the maximum", v, pct)
	}
}
