package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/arvi"
	"repro/internal/benchkit"
	"repro/internal/bpred"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vpred"
	"repro/internal/workload"
)

// branch is one dynamic conditional branch of the recorded streams, with
// the leaf values the ARVI probe hashes (the branch's source registers'
// architectural values).
type branch struct {
	pc     uint64
	taken  bool
	leaves [2]arvi.LeafValue
	n      int
}

// layerBenchmarks times the engine's layers on the sweep's own inputs: the
// eight benchmarks' correct-path traces at the default budget, recorded
// here with trace.RecordAll exactly as the trace store records them.
func layerBenchmarks(rep *report) error {
	n := int64(sim.DefaultMaxInsts)
	var decs []*trace.Decoded
	var recordInsts int64
	var recordErr error
	suite := workload.All()
	recordDur := timed(func() {
		for _, bench := range suite {
			d, err := trace.RecordAll(bench.Prog, n)
			if err != nil {
				recordErr = err
				return
			}
			decs = append(decs, d)
			recordInsts += d.Len()
		}
	})
	if recordErr != nil {
		return recordErr
	}
	rep.set("vm.record_ns_per_inst", float64(recordDur)/float64(recordInsts), "ns/inst")

	// Replay with no timing model, and the streams the probes below use.
	var replayInsts int64
	var branches []branch
	var addrs []uint64
	var pcs []int
	replayDur := timed(func() {
		for _, d := range decs {
			c := d.Cursor()
			var ev vm.Event
			for c.Next(&ev) == nil {
				replayInsts++
			}
		}
	})
	rep.set("trace.replay_ns_per_inst", float64(replayDur)/float64(replayInsts), "ns/inst")
	for _, d := range decs {
		var regs [isa.NumRegs]int64
		c := d.Cursor()
		var ev vm.Event
		var src []isa.Reg
		for c.Next(&ev) == nil {
			pcs = append(pcs, ev.PC)
			if ev.Inst.IsMem() {
				addrs = append(addrs, ev.Addr)
			}
			if ev.Inst.IsCondBranch() {
				b := branch{pc: uint64(ev.PC), taken: ev.Taken}
				src = ev.Inst.SrcRegs(src[:0])
				for _, r := range src[:min(len(src), 2)] {
					b.leaves[b.n] = arvi.LeafValue{Logical: uint8(r), Value: uint16(regs[r])}
					b.n++
				}
				branches = append(branches, b)
			}
			if ev.Inst.HasDest() {
				regs[ev.Inst.Rd] = ev.Val
			}
		}
	}

	// The timing model per predictor mode, at depth 20. The modes take
	// turns on each trace, so a slow stretch of the host lands on all four
	// rather than on one.
	engines := make([]*cpu.Engine, len(sim.Modes))
	for i, mode := range sim.Modes {
		cfg := cpu.DefaultConfig(20, mode)
		cfg.MaxInsts = n
		eng, err := cpu.NewEngine(cfg)
		if err != nil {
			return err
		}
		engines[i] = eng
	}
	busy := make([]time.Duration, len(engines))
	insts := make([]int64, len(engines))
	for _, dec := range decs {
		for i, eng := range engines {
			eng.Reset()
			var st cpu.Stats
			var err error
			busy[i] += timed(func() { st, err = eng.RunSource(dec.Prog(), dec.Cursor()) })
			if err != nil {
				return err
			}
			insts[i] += st.Insts
		}
	}
	for i := range engines {
		rep.set("cpu.engine_ns_per_inst."+sim.ModeNames[i], float64(busy[i])/float64(insts[i]), "ns/inst")
	}

	rep.set("core.ddt_insert_ns", float64(testing.Benchmark(benchkit.DDTInsert).NsPerOp()), "ns")
	rep.set("core.leafset_ns", float64(testing.Benchmark(benchkit.LeafSet).NsPerOp()), "ns")

	const passes = 3
	g, err := bpred.NewGskew2Bc(cpu.DefaultConfig(20, cpu.PredBaseline2Lvl).L1PredEntries)
	if err != nil {
		return err
	}
	d := timed(func() {
		for p := 0; p < passes; p++ {
			var hist uint64
			for _, b := range branches {
				g.Predict(b.pc, hist)
				g.Update(b.pc, hist, b.taken)
				hist <<= 1
				if b.taken {
					hist |= 1
				}
			}
		}
	})
	rep.set("bpred.gskew_ns_per_branch", float64(d)/float64(passes*len(branches)), "ns")

	bvit, err := arvi.New(arvi.DefaultConfig())
	if err != nil {
		return err
	}
	d = timed(func() {
		for p := 0; p < passes; p++ {
			for _, b := range branches {
				k := bvit.MakeKey(b.pc, b.leaves[:b.n], b.n)
				bvit.LookupEx(k)
				bvit.Update(k, b.taken, true)
			}
		}
	})
	rep.set("arvi.bvit_ns_per_lookup", float64(d)/float64(passes*len(branches)), "ns")

	h := mem.NewHierarchy(mem.LatenciesForDepth(20))
	d = timed(func() {
		for p := 0; p < passes; p++ {
			for _, a := range addrs {
				h.DataAccess(a)
			}
		}
	})
	rep.set("mem.data_access_ns", float64(d)/float64(passes*len(addrs)), "ns")
	h.Reset()
	d = timed(func() {
		for p := 0; p < passes; p++ {
			for _, pc := range pcs {
				h.FetchAccess(pc)
			}
		}
	})
	rep.set("mem.fetch_access_ns", float64(d)/float64(passes*len(pcs)), "ns")
	return nil
}

// storeProbes times the result cache and trace store directly, after the
// workload filled them: a hit per matrix cell and study, a put per cell
// into a scratch cache under dir, and trace fetches from memory and, via
// a freshly opened store over the same directory, from disk.
func storeProbes(ctx context.Context, cache *sim.Cache, ts *sim.TraceStore, mx *sim.Matrix, b budget, dir string, rep *report) error {
	specs := b.specs()
	var gets, puts, studyGets []time.Duration
	var misses int
	for round := 0; round < 3; round++ {
		for _, sp := range specs {
			var ok bool
			gets = append(gets, timed(func() { _, ok = cache.Get(sp) }))
			if !ok {
				misses++
			}
		}
	}
	for _, m := range workload.Mixes() {
		for _, p := range sim.SMTPolicies {
			var out sim.SMTStats
			var ok bool
			var err error
			studyGets = append(studyGets, timed(func() {
				ok, err = cache.GetStudy(sim.SMTStudy{Mix: m, Policy: p, Config: b.smtConfig()}, &out)
			}))
			if err != nil || !ok {
				misses++
			}
		}
	}
	params := b.vpredParams()
	for _, bench := range workload.Names {
		for _, p := range sim.VPredPredictors {
			for _, sel := range []bool{false, true} {
				var out vpred.Result
				var ok bool
				var err error
				studyGets = append(studyGets, timed(func() {
					ok, err = cache.GetStudy(sim.VPredStudy{Bench: bench, Predictor: p, Selective: sel, Params: params}, &out)
				}))
				if err != nil || !ok {
					misses++
				}
			}
		}
	}
	if misses > 0 {
		return errors.New("store probe: the warm cache is missing entries")
	}
	scratch, err := sim.OpenCache(filepath.Join(dir, "put-probe"))
	if err != nil {
		return err
	}
	for _, sp := range specs {
		st, _ := mx.LookupSpec(sp)
		var perr error
		puts = append(puts, timed(func() { perr = scratch.Put(sp, st) }))
		if perr != nil {
			return perr
		}
	}
	rep.set("sim.cache_get_us", us(medianDur(gets)), "us")
	rep.set("sim.study_get_us", us(medianDur(studyGets)), "us")
	rep.set("sim.cache_put_us", us(medianDur(puts)), "us")

	// Only traces this store recorded itself are resident; a cluster
	// worker may have recorded a subset of the benchmarks.
	var memGets, diskGets []time.Duration
	fresh, err := sim.OpenTraceStore(ts.Dir(), 0)
	if err != nil {
		return err
	}
	for _, name := range workload.Names {
		p := workload.ByName(name).Prog
		if _, err := os.Stat(ts.Path(p, b.insts)); err != nil {
			continue
		}
		var gerr error
		for round := 0; round < 5 && gerr == nil; round++ {
			memGets = append(memGets, timed(func() { _, gerr = ts.Get(ctx, p, b.insts) }))
		}
		diskGets = append(diskGets, timed(func() { _, gerr = fresh.Get(ctx, p, b.insts) }))
		if gerr != nil {
			return gerr
		}
	}
	if fresh.Recorded() != 0 {
		return errors.New("store probe: a persisted trace was re-recorded instead of read")
	}
	rep.set("sim.trace_get_us.mem", us(medianDur(memGets)), "us")
	rep.set("sim.trace_get_us.disk", us(medianDur(diskGets)), "us")
	return nil
}
