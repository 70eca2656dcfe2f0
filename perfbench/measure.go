package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// sample is what one job of the closed loop cost.
type sample struct {
	ms         float64 // wall time of Compile + Run/RunTCP
	cpuMs      float64 // process user+sys CPU over the same region
	allocs     uint64  // heap objects allocated
	allocBytes uint64
	gcs        uint32
	gcPauseNs  uint64
	steps      int
}

// meter brackets one timed region with process CPU and heap counters.
// The counters are read outside the region: ReadMemStats stops the world.
type meter struct {
	mem  runtime.MemStats
	cpu  time.Duration
	wall time.Time
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuTime()
	m.wall = time.Now()
}

func (m *meter) stop(steps int) sample {
	wall := time.Since(m.wall)
	cpu := cpuTime()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return sample{
		ms:         float64(wall.Nanoseconds()) / 1e6,
		cpuMs:      float64((cpu - m.cpu).Nanoseconds()) / 1e6,
		allocs:     end.Mallocs - m.mem.Mallocs,
		allocBytes: end.TotalAlloc - m.mem.TotalAlloc,
		gcs:        end.NumGC - m.mem.NumGC,
		gcPauseNs:  end.PauseTotalNs - m.mem.PauseTotalNs,
		steps:      steps,
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the value at the highest percentile that still has at
// least ten samples above it, with that percentile and the sample count.
// With fewer than eleven samples it falls back to the maximum (pct 100).
func tail(xs []float64) (v, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 11
	if i < 0 {
		return s[n-1], 100, n
	}
	return s[i], 100 * float64(i+1) / float64(n), n
}

// env is the provenance block printed with every result.
type env struct {
	Commit     string  `json:"commit"`
	Dirty      string  `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Input      string  `json:"input"`
	Timestamp  string  `json:"timestamp"`
}

func provenance() env {
	e := env{
		Commit:     "unknown",
		Dirty:      "unknown",
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	// The go command stamps the build with the repository's state when it
	// builds inside a git checkout; a plain source tree has neither field.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				e.Dirty = s.Value
			}
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// lineOnly metrics are printed but kept out of the result object,
	// whose metrics are exactly the ones BENCHMARK.json declares.
	lineOnly bool
}

// report collects metrics in print order and renders them: one
// human-readable line each, then the result object as the last line.
type report struct {
	names   []string
	metrics map[string]metric
}

func (r *report) add(name string, v float64, unit string) { r.put(name, metric{Value: v, Unit: unit}) }

// line adds a metric that is printed but not part of the result object.
func (r *report) line(name string, v float64, unit string) {
	r.put(name, metric{Value: v, Unit: unit, lineOnly: true})
}

func (r *report) put(name string, m metric) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = m
}

func (r *report) print(w *bufio.Writer, correct bool, attempted, failed int) error {
	result := map[string]metric{}
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Fprintf(w, "metric %-44s %14.6g %s\n", name, m.Value, m.Unit)
		if !m.lineOnly {
			result[name] = m
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, result})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", out)
	return w.Flush()
}
