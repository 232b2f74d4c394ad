// Command perfbench is the repository benchmark. One invocation runs one
// named workload in this single load-generating process and prints every
// metric by name with its unit; the last line of standard output is a JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see BENCHMARK.json for the layer each one loads and bypasses):
//
//	sweep-cold     the paper's full artifact set computed the way
//	               cmd/experiments computes it, through one sim.Engine with
//	               nproc pool workers over a fresh result cache and trace
//	               store; then warm in-process queries of the same engine
//	serve-warm     one server.New daemon on loopback: a cold fill of the
//	               request set, then a closed loop of nproc clients over
//	               the warm cache
//	cluster-sweep  a dist.Coordinator daemon and two worker daemons with
//	               push-enabled cache peers: a cold pass through the
//	               coordinator, then the same closed loop against it
//
// Every workload reports the same end-to-end metrics, so one list serves
// all three: setup_s, peak_rss_mb, cold_s, run_p50_ms, run_p99_ms,
// matrix_p50_ms, matrix_p90_ms, study_p50_ms and warm_ops_per_s. The warm
// closed loop sends a seeded mix to every workload: 85% single cells, 10%
// full matrices, 5% study grids. A run is a few rounds of set-up, cold
// pass and a share of the warm phase, and every response is checked: the
// cold outputs against digests recorded from single-node runs
// (expected.json), each warm response byte for byte against its cold one.
//
// With --trace 1 a separate traced run reports the per-layer metrics
// instead; tracing lives only in this benchmark's own files (wrapping
// handlers, round trippers and storage.FS, and spans around calls into
// each package), never inside the program.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable verdict (the last stdout line).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics, notes and operation counts.
type report struct {
	metrics   map[string]metric
	notes     []string
	attempted int64
	failed    int64
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// ops records n attempted operations of which bad failed.
func (r *report) ops(n, bad int64) {
	r.attempted += n
	r.failed += bad
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the workload's inputs (benchmark order, request mix)")
	seconds := flag.Int("seconds", 10, "length of the measured warm phase, in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	work := flag.String("work", ".bench_build", "directory for the run's stores and span files")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	var err error
	if want, err = loadExpected(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir := filepath.Join(*work, fmt.Sprintf("run-%s-%d", *name, os.Getpid()))
	cfg := runConfig{
		seed:    *seed,
		seconds: *seconds,
		dir:     dir,
		spans:   filepath.Join(*work, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)),
		clients: min(2, runtime.NumCPU()),
		budget:  w.budget,
	}
	rep := newReport()
	rep.note("machine: %s", fingerprint())
	if *traced == 1 {
		err = runTraced(context.Background(), cfg, w, rep)
	} else {
		err = runEndToEnd(context.Background(), cfg, w, rep)
	}
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = fmt.Errorf("remove run directory: %w", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	emit(rep)
}

// emit prints the human-readable report and, last, the JSON verdict.
func emit(rep *report) {
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("operations: %d attempted, %d failed\n", rep.attempted, rep.failed)
	b, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
