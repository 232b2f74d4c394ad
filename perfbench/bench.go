package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/smt"
	"repro/internal/workload"
)

// setupRepeats is how many times an end-to-end run builds its system;
// setup_s is the median.
const setupRepeats = 25

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds int
	dir     string // scratch root for the run's stores, removed at exit
	spans   string // where a traced run writes its spans
	clients int    // closed-loop clients (and connections): min(2, nproc)
	budget  budget // the workload's per-cell work
}

// budget is the per-cell work a workload's jobs ask for.
type budget struct {
	insts  int64 // per branch-prediction and value-prediction cell
	cycles int64 // per SMT cell
}

// fullBudget is cmd/experiments' and arvid's default. The daemon workloads
// ask for a fifth of it: their warm operations cost the same at any
// budget, and the smaller cold fill keeps their cold pass weighted toward
// the write path (cache puts, peer pushes, trace recording) and lets a
// run hold more rounds.
var (
	fullBudget   = budget{insts: sim.DefaultMaxInsts, cycles: smt.DefaultConfig().MaxCycles}
	daemonBudget = budget{insts: fullBudget.insts / 5, cycles: fullBudget.cycles / 5}
)

// specs is the Fig-6 grid at this budget, in canonical order: 8
// benchmarks × depths 20/40/60 × the 4 predictor modes.
func (b budget) specs() []sim.Spec {
	return sim.MatrixSpecs(workload.Names, sim.Depths, sim.Modes, b.insts)
}

func (b budget) smtConfig() smt.Config {
	c := smt.DefaultConfig()
	c.MaxCycles = b.cycles
	return c
}

func (b budget) vpredParams() sim.VPredParams { return sim.DefaultVPredParams(b.insts) }

// opKind is a class of warm operation.
type opKind int

const (
	opRun opKind = iota
	opMatrix
	opSMT
	opVPred
	numKinds
)

// kindName names each operation class in spans.
var kindName = [numKinds]string{"run", "matrix", "smt", "vpred"}

// op is one warm operation: a single matrix cell (opRun, cell indexes
// budget.specs), the whole 96-cell matrix, or one of the two study grids.
type op struct {
	kind opKind
	cell int
}

// numCells is the Fig-6 grid's size.
var numCells = len(workload.Names) * len(sim.Depths) * len(sim.Modes)

// nextOp draws the seeded warm mix: mostly single cells, some full
// matrices, a few study grids (four value-prediction grids per SMT grid,
// so the study median falls inside one grid kind's cluster).
func nextOp(r *rand.Rand) op {
	switch x := r.IntN(1000); {
	case x < 850:
		return op{kind: opRun, cell: r.IntN(numCells)}
	case x < 950:
		return op{kind: opMatrix}
	case x < 990:
		return op{kind: opVPred}
	default:
		return op{kind: opSMT}
	}
}

// refs are the cold pass's responses, which every warm response of the
// same operation must equal byte for byte.
type refs struct {
	run                [][]byte
	matrix, smt, vpred []byte
}

func (r *refs) of(o op) []byte {
	switch o.kind {
	case opRun:
		return r.run[o.cell]
	case opMatrix:
		return r.matrix
	case opSMT:
		return r.smt
	default:
		return r.vpred
	}
}

// coldOutput is what a cold pass leaves behind.
type coldOutput struct {
	refs      refs
	mx        *sim.Matrix // the Fig-6 matrix, for the model report
	cells     []cellStats // every simulated branch-prediction cell
	smtDur    time.Duration
	vpredDur  time.Duration
	attempted int64
	failed    int64
}

// system is one workload's system under test.
type system interface {
	// cold computes the workload's job set from empty stores, checks every
	// output against the expected digests, and keeps the responses warm
	// operations are compared to.
	cold(ctx context.Context, seed int64) (*coldOutput, error)
	// do performs one warm operation and returns its response bytes.
	do(ctx context.Context, o op) ([]byte, error)
	// counters reports the per-layer counts.
	counters() map[string]float64
	// probes names the cache and trace store the traced run times directly.
	probes() (*sim.Cache, *sim.TraceStore)
	close()
}

// workloadDef builds a workload's system.
type workloadDef struct {
	// build sets the system up over dir; tr is nil in untraced runs.
	build func(cfg runConfig, dir string, tr *tracer) (system, error)
	// entry names the daemon the load client talks to ("" = in-process).
	entry  string
	budget budget
	// rounds is how many cold passes (cold_s is the median) an end-to-end
	// run measures, each followed by an equal share of the warm phase.
	// A shared host's speed drifts over seconds, so the cheaper a cold
	// pass, the more rounds a run spreads its samples over.
	rounds int
}

var workloads = map[string]workloadDef{
	"sweep-cold":    {build: buildSweep, budget: fullBudget, rounds: 4},
	"serve-warm":    {build: buildServe, entry: "daemon", budget: daemonBudget, rounds: 6},
	"cluster-sweep": {build: buildCluster, entry: "coord", budget: daemonBudget, rounds: 6},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// runEndToEnd measures the untraced end-to-end metrics. The run is split
// into rounds, each on a freshly built system: set-up, cold pass, then a
// share of the warm phase. Spreading every metric's samples over the whole
// run keeps a passing stall on the machine from landing on one metric.
func runEndToEnd(ctx context.Context, cfg runConfig, w workloadDef, rep *report) error {
	var setups, colds []float64
	// A set-up draws the round's seeded warm schedule and builds the
	// system over fresh stores.
	build := func(i int) (system, schedule, error) {
		t0 := time.Now()
		sched := newSchedule(cfg, i)
		s, err := w.build(cfg, filepath.Join(cfg.dir, fmt.Sprintf("sys%d", i)), nil)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return s, sched, nil
	}
	// Set-up is cheap next to a round; extra builds steady its median.
	for i := w.rounds; i < setupRepeats; i++ {
		s, _, err := build(i)
		if err != nil {
			return err
		}
		s.close()
	}
	warm := &warmResult{}
	var out *coldOutput
	for r := 0; r < w.rounds; r++ {
		sys, sched, err := build(r)
		if err != nil {
			return err
		}
		t0 := time.Now()
		o, err := sys.cold(ctx, cfg.seed+int64(r))
		if err != nil {
			sys.close()
			return fmt.Errorf("cold pass: %w", err)
		}
		colds = append(colds, time.Since(t0).Seconds())
		rep.ops(o.attempted, o.failed)
		wr := warmLoop(ctx, sys, &o.refs, sched, time.Duration(cfg.seconds)*time.Second/time.Duration(w.rounds))
		warm.merge(wr)
		sys.close()
		rep.note("round %d: cold pass %.3f s, warm %.1f ops/s", r, colds[r], rate(wr))
		out = o
	}
	rep.ops(warm.attempted, warm.failed)

	rep.set("setup_s", median(setups), "s")
	rep.set("cold_s", median(colds), "s")
	warm.report(rep)
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	sort.Float64s(setups)
	rep.note("set-ups: %d, median %.6f s (min %.6f, max %.6f); rounds: %d, each a cold pass (median reported) and %s of warm load",
		len(setups), median(setups), setups[0], setups[len(setups)-1], w.rounds, time.Duration(cfg.seconds)*time.Second/time.Duration(w.rounds))
	modelReport(out, rep, false)
	return nil
}

// scheduleLen is how many operations a client's schedule holds; a client
// that runs out within its share of the warm phase starts over.
const scheduleLen = 50_000

// schedule is one warm phase's seeded operations, a sequence per client,
// drawn during set-up so the timed phase pays nothing for it.
type schedule [][]op

func newSchedule(cfg runConfig, round int) schedule {
	s := make(schedule, cfg.clients)
	for c := range s {
		r := rand.New(rand.NewPCG(uint64(cfg.seed), uint64(round*cfg.clients+c+1)))
		s[c] = make([]op, scheduleLen)
		for i := range s[c] {
			s[c][i] = nextOp(r)
		}
	}
	return s
}

// warmResult holds a warm phase's samples.
type warmResult struct {
	lat       [numKinds][]time.Duration
	elapsed   time.Duration
	attempted int64
	failed    int64
}

// warmLoop drives one closed-loop client per schedule sequence for d: each
// sends its next operation only after the previous one completed. A
// response that errors or differs from the cold reference counts as
// failed.
func warmLoop(ctx context.Context, sys system, ref *refs, sched schedule, d time.Duration) *warmResult {
	per := make([]*warmResult, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c, ops := range sched {
		res := &warmResult{}
		per[c] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				o := ops[i%len(ops)]
				t0 := time.Now()
				b, err := sys.do(ctx, o)
				res.lat[o.kind] = append(res.lat[o.kind], time.Since(t0))
				res.attempted++
				if err != nil || string(b) != string(ref.of(o)) {
					res.failed++
					if err == nil {
						err = fmt.Errorf("response differs from the cold response")
					}
					fmt.Fprintf(os.Stderr, "perfbench: warm op %v: %v\n", o, err)
				}
			}
		}()
	}
	wg.Wait()
	all := &warmResult{}
	for _, p := range per {
		all.merge(p)
	}
	all.elapsed = time.Since(start)
	return all
}

// merge adds o's samples, counts and time to w.
func (w *warmResult) merge(o *warmResult) {
	for k := range o.lat {
		w.lat[k] = append(w.lat[k], o.lat[k]...)
	}
	w.attempted += o.attempted
	w.failed += o.failed
	w.elapsed += o.elapsed
}

// report adds the warm-phase end-to-end metrics and their sample counts.
func (w *warmResult) report(rep *report) {
	study := append(append([]time.Duration(nil), w.lat[opSMT]...), w.lat[opVPred]...)
	for _, p := range []struct {
		name    string
		samples []time.Duration
		q       float64
	}{
		{"run_p50_ms", w.lat[opRun], 0.50},
		{"run_p99_ms", w.lat[opRun], 0.99},
		{"matrix_p50_ms", w.lat[opMatrix], 0.50},
		{"matrix_p90_ms", w.lat[opMatrix], 0.90},
		{"study_p50_ms", study, 0.50},
	} {
		v, beyond := percentile(p.samples, p.q)
		rep.set(p.name, ms(v), "ms")
		flag := ""
		if beyond < 10 {
			flag = " (fewer than 10 samples beyond: not a valid tail)"
		}
		rep.note("%s: %d samples, %d beyond%s", p.name, len(p.samples), beyond, flag)
	}
	rep.set("warm_ops_per_s", float64(w.attempted)/w.elapsed.Seconds(), "1/s")
}

// percentile returns the nearest-rank q-quantile of samples and how many
// samples lie beyond it.
func percentile(samples []time.Duration, q float64) (time.Duration, int) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = min(max(i, 0), len(s)-1)
	return s[i], len(s) - 1 - i
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDur is median over durations.
func medianDur(v []time.Duration) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}
