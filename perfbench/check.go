package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// expectedJSON holds the digests of the outputs users read, recorded from
// single-node runs: cmd/experiments' rendered tables at its default flags
// (fullBudget), and one arvid daemon's /v1/matrix and /v1/study responses
// for the default grids at daemonBudget. It records both budgets so the
// digests cannot silently outlive a change to either.
//
//go:embed expected.json
var expectedJSON []byte

// want is the loaded expected.json.
var want expected

type expected struct {
	MaxInsts     int64  `json:"max_insts"`
	DaemonInsts  int64  `json:"daemon_max_insts"`
	DaemonCycles int64  `json:"daemon_max_cycles"`
	SweepTables  string `json:"sweep_tables_sha256"`
	Matrix       string `json:"matrix_sha256"`
	SMT          string `json:"smt_sha256"`
	VPred        string `json:"vpred_sha256"`
}

func loadExpected() (expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	if e.MaxInsts != fullBudget.insts || e.DaemonInsts != daemonBudget.insts || e.DaemonCycles != daemonBudget.cycles {
		return e, fmt.Errorf("expected.json records budgets %d/%d/%d, the code uses %d/%d/%d", e.MaxInsts, e.DaemonInsts, e.DaemonCycles,
			fullBudget.insts, daemonBudget.insts, daemonBudget.cycles)
	}
	return e, nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// matches checks an output against its expected digest, reporting a
// mismatch on stderr.
func matches(what string, b []byte, expect string) bool {
	if got := digest(b); got != expect {
		fmt.Fprintf(os.Stderr, "perfbench: %s digest %s, expected %s\n", what, got, expect)
		return false
	}
	return true
}

// cellStats is one simulated branch-prediction cell.
type cellStats struct {
	spec sim.Spec
	st   cpu.Stats
}

// violations counts the cpu.Stats invariants one cell breaks: the class
// split adds up and the BVIT counters nest in ARVI modes; overrides, and
// the commit bandwidth, bound the rest in every mode.
func violations(c cellStats) int {
	s := c.st
	n := 0
	bad := func(broken bool) {
		if broken {
			n++
		}
	}
	if c.spec.Mode != cpu.PredBaseline2Lvl {
		bad(s.CalcBranches+s.LoadBranches != s.CondBranches)
		bad(s.CalcMispreds+s.LoadMispreds != s.Mispredicts)
		bad(s.ARVIUsed > s.ARVIHits || s.ARVIHits > s.ARVILookups)
	}
	bad(s.OverrideGood > s.Overrides)
	bad(s.Cycles*int64(c.spec.Config().CommitWidth) < s.Insts)
	return n
}

// paperGain is the paper's suite-average IPC gain of ARVI current value
// over the two-level baseline, by pipeline depth.
var paperGain = map[int]float64{20: 12.6, 60: 15.6}

// modelReport states the model's fidelity: ARVI current value's average
// IPC gain at each depth and its distance from the paper's figure, and
// the invariant violations over every cell. In a traced run these are
// metrics; otherwise they are report lines. The gains mean something only
// at the paper-scale budget, so a workload at another budget reports them
// as zero.
func modelReport(out *coldOutput, rep *report, asMetrics bool) {
	put := func(name string, v float64, unit string) {
		if asMetrics {
			rep.set(name, v, unit)
		} else {
			rep.note("%s %.4f %s", name, v, unit)
		}
	}
	full := out.mx.MaxInsts == fullBudget.insts
	for _, d := range sim.Depths {
		_, sum := sim.Fig6IPC(out.mx, d)
		gain := 100 * sum.AvgImprovement[cpu.PredARVICurrent]
		gap := math.Abs(gain - paperGain[d])
		if !full {
			gain, gap = 0, 0
		}
		put(fmt.Sprintf("model.arvi_ipc_gain_pct.d%d", d), gain, "%")
		if _, ok := paperGain[d]; ok {
			put(fmt.Sprintf("model.paper_gap_pp.d%d", d), gap, "pp")
		}
	}
	if !full {
		rep.note("model: IPC gains are reported by sweep-cold, which runs the paper-scale budget")
	}
	v := 0
	for _, c := range out.cells {
		v += violations(c)
	}
	put("model.invariant_violations", float64(v), "count")
	rep.note("model: checked only against the paper's two suite averages (+12.6%% IPC at 20 stages, +15.6%% at 60, ARVI current value); invariants checked over %d cells", len(out.cells))
}

// fingerprint names the machine, so figures from different machines are
// never compared silently.
func fingerprint() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
