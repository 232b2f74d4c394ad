package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sweepSystem is sweep-cold's system: one sim.Engine with nproc pool
// workers over an on-disk result cache and trace store, driven in-process
// the way cmd/experiments drives it.
type sweepSystem struct {
	eng   *sim.Engine
	b     budget
	specs []sim.Spec
	tr    *tracer
}

func buildSweep(cfg runConfig, dir string, tr *tracer) (system, error) {
	fsys := tracedFS(tr, "engine")
	cache, err := sim.OpenCacheFS(filepath.Join(dir, "cache"), fsys, nil)
	if err != nil {
		return nil, err
	}
	traces, err := sim.OpenTraceStoreFS(filepath.Join(dir, "traces"), 0, fsys, nil)
	if err != nil {
		return nil, err
	}
	return &sweepSystem{
		eng:   &sim.Engine{Workers: runtime.NumCPU(), Cache: cache, Traces: traces},
		b:     cfg.budget,
		specs: cfg.budget.specs(),
		tr:    tr,
	}, nil
}

// cold runs the full artifact set — the Fig-6 matrix, the confidence and
// cut-at-loads sweeps, the SMT grid and the value-prediction grid — in a
// seeded benchmark order, renders every table exactly as cmd/experiments
// prints them, and checks the rendering's digest.
func (s *sweepSystem) cold(ctx context.Context, seed int64) (*coldOutput, error) {
	benches := append([]string(nil), workload.Names...)
	rand.New(rand.NewPCG(uint64(seed), 0)).Shuffle(len(benches), func(i, j int) {
		benches[i], benches[j] = benches[j], benches[i]
	})
	n := s.b.insts
	out := &coldOutput{attempted: 1} // the rendered tables
	var (
		mx        *sim.Matrix
		conf, cut *sim.SweepResult
		smtGrid   *sim.SMTGrid
		vpredGrid *sim.VPredGrid
		err       error
	)
	step := func(name string, fn func() error) time.Duration {
		return s.span(name, func() {
			if e := fn(); err == nil {
				err = e
			}
		})
	}
	step("matrix", func() (e error) { mx, e = s.eng.RunMatrix(ctx, benches, sim.Depths, sim.Modes, n); return })
	step("sweep-conf", func() (e error) {
		conf, e = s.eng.RunConfThresholdSweep(ctx, benches, 20, sim.DefaultConfThresholds, n)
		return
	})
	step("sweep-cut", func() (e error) { cut, e = s.eng.RunCutAtLoadsSweep(ctx, benches, 20, n); return })
	out.smtDur = step("smt", func() (e error) {
		smtGrid, e = s.eng.RunSMTGrid(ctx, workload.Mixes(), sim.SMTPolicies, s.b.smtConfig())
		return
	})
	out.vpredDur = step("vpred", func() (e error) {
		vpredGrid, e = s.eng.RunVPredGrid(ctx, benches, sim.VPredPredictors, s.b.vpredParams())
		return
	})
	if err != nil {
		return nil, err
	}
	// The value-prediction tables list rows in grid order; render them in
	// the suite order cmd/experiments uses, whatever order the seed ran.
	vpredGrid.Benches = workload.Names

	tables, err := renderArtifacts(mx, conf, cut, smtGrid, vpredGrid)
	if err != nil {
		return nil, err
	}
	if !matches("sweep-cold tables", tables, want.SweepTables) {
		out.failed++
	}
	out.mx = mx
	for _, sp := range s.specs {
		st, _ := mx.LookupSpec(sp)
		out.cells = append(out.cells, cellStats{sp, st})
	}
	for _, sr := range []*sim.SweepResult{conf, cut} {
		for _, b := range workload.Names {
			for _, p := range sr.Points {
				st, ok := sr.Lookup(b, p)
				if ok {
					out.cells = append(out.cells, cellStats{sim.Spec{Bench: b, Depth: sr.Depth, Mode: sr.Mode}, st})
				}
			}
		}
	}

	// Warm references: what the engine's cold results render to.
	out.refs.run = make([][]byte, len(s.specs))
	for i, sp := range s.specs {
		st, _ := mx.LookupSpec(sp)
		if out.refs.run[i], err = json.Marshal(sim.Result{Spec: sp, Stats: st}); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := mx.WriteJSON(&buf, sim.Depths); err != nil {
		return nil, err
	}
	out.refs.matrix = bytes.Clone(buf.Bytes())
	buf.Reset()
	if err := smtGrid.WriteJSON(&buf); err != nil {
		return nil, err
	}
	out.refs.smt = bytes.Clone(buf.Bytes())
	buf.Reset()
	if err := vpredGrid.WriteJSON(&buf); err != nil {
		return nil, err
	}
	out.refs.vpred = bytes.Clone(buf.Bytes())
	return out, nil
}

// renderArtifacts renders every table in cmd/experiments' order and
// format.
func renderArtifacts(mx *sim.Matrix, conf, cut *sim.SweepResult, g *sim.SMTGrid, v *sim.VPredGrid) ([]byte, error) {
	tables := []sim.Table{sim.Table2(), sim.Table4(), sim.Fig5a(mx), sim.Fig5b(mx, 20)}
	for _, d := range sim.Depths {
		t, _ := sim.Fig6IPC(mx, d)
		tables = append(tables, sim.Fig6Accuracy(mx, d), t)
	}
	head := sim.Table{
		Title:  "Headline: average IPC improvement over the two-level 2Bc-gskew baseline",
		Note:   "paper: +12.6% at 20 stages, +15.6% at 60 stages (ARVI current value)",
		Header: []string{"depth", "arvi-current", "arvi-loadback", "arvi-perfect"},
	}
	for _, d := range sim.Depths {
		_, s := sim.Fig6IPC(mx, d)
		row := []string{fmt.Sprintf("%d", d)}
		for _, md := range []cpu.PredMode{cpu.PredARVICurrent, cpu.PredARVILoadBack, cpu.PredARVIPerfect} {
			if imp, ok := s.AvgImprovement[md]; ok {
				row = append(row, fmt.Sprintf("%+.1f%%", 100*imp))
			} else {
				row = append(row, "n/a")
			}
		}
		head.AddRow(row...)
	}
	tables = append(tables, head,
		sim.SweepAccuracyTable(conf), sim.SweepARVIUseTable(conf), sim.SweepIPCTable(conf),
		sim.SweepAccuracyTable(cut), sim.SweepIPCTable(cut),
		sim.SMTThroughputTable(g), sim.SMTBalanceTable(g),
		sim.VPredAccuracyTable(v), sim.VPredCoverageTable(v))
	var buf bytes.Buffer
	for _, t := range tables {
		if err := t.Render(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// do answers a warm operation from the engine in-process, as a repeated
// cmd/arvisim or cmd/experiments invocation over the same stores would.
func (s *sweepSystem) do(ctx context.Context, o op) ([]byte, error) {
	var b []byte
	var err error
	s.span(kindName[o.kind], func() { b, err = s.query(ctx, o) })
	return b, err
}

func (s *sweepSystem) query(ctx context.Context, o op) ([]byte, error) {
	var buf bytes.Buffer
	switch o.kind {
	case opRun:
		res, err := s.eng.Run(ctx, []sim.Spec{s.specs[o.cell]})
		if err != nil {
			return nil, err
		}
		return json.Marshal(res[0])
	case opMatrix:
		mx, err := s.eng.RunMatrix(ctx, workload.Names, sim.Depths, sim.Modes, s.b.insts)
		if err != nil {
			return nil, err
		}
		err = mx.WriteJSON(&buf, sim.Depths)
		return buf.Bytes(), err
	case opSMT:
		g, err := s.eng.RunSMTGrid(ctx, workload.Mixes(), sim.SMTPolicies, s.b.smtConfig())
		if err != nil {
			return nil, err
		}
		err = g.WriteJSON(&buf)
		return buf.Bytes(), err
	default:
		g, err := s.eng.RunVPredGrid(ctx, workload.Names, sim.VPredPredictors, s.b.vpredParams())
		if err != nil {
			return nil, err
		}
		err = g.WriteJSON(&buf)
		return buf.Bytes(), err
	}
}

// span times fn as a sim-layer span on the engine node.
func (s *sweepSystem) span(name string, fn func()) time.Duration {
	return s.tr.around("sim", name, "engine", fn)
}

func (s *sweepSystem) counters() map[string]float64 {
	return map[string]float64{
		"sim.cache_hits": float64(s.eng.CacheHits()),
		"vm.runs":        float64(s.eng.Traces.Recorded()),
	}
}

func (s *sweepSystem) probes() (*sim.Cache, *sim.TraceStore) { return s.eng.Cache, s.eng.Traces }

func (s *sweepSystem) close() {}
