package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// runTraced is the separate traced run behind the per-layer metrics. It
// first runs the workload untraced (a cold pass and half the warm phase)
// as the reference, then again on a fresh system with every layer
// boundary traced; the difference between the two is the tracing's own
// overhead. Then it times the engine layers and the stores directly.
func runTraced(ctx context.Context, cfg runConfig, w workloadDef, rep *report) error {
	half := time.Duration(cfg.seconds) * time.Second / 2

	ref, err := w.build(cfg, filepath.Join(cfg.dir, "untraced"), nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	var outA *coldOutput
	coldA := timed(func() { outA, err = ref.cold(ctx, cfg.seed) })
	if err != nil {
		ref.close()
		return fmt.Errorf("cold pass: %w", err)
	}
	rep.ops(outA.attempted, outA.failed)
	warmA := warmLoop(ctx, ref, &outA.refs, newSchedule(cfg, 0), half)
	rep.ops(warmA.attempted, warmA.failed)
	ref.close()

	tr := newTracer()
	sys, err := w.build(cfg, filepath.Join(cfg.dir, "traced"), tr)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer sys.close()
	coldStart := tr.now()
	var outB *coldOutput
	coldB := timed(func() { outB, err = sys.cold(ctx, cfg.seed) })
	if err != nil {
		return fmt.Errorf("traced cold pass: %w", err)
	}
	rep.ops(outB.attempted, outB.failed)
	warmStart := tr.now()
	warmB := warmLoop(ctx, sys, &outB.refs, newSchedule(cfg, 0), half)
	rep.ops(warmB.attempted, warmB.failed)
	warmEnd := tr.now()

	rep.set("tracing.overhead_pct.cold", 100*(coldB.Seconds()/coldA.Seconds()-1), "%")
	rep.set("tracing.overhead_pct.warm", 100*(rate(warmA)/rate(warmB)-1), "%")
	rep.note("tracing overhead: cold pass %.3f s traced vs %.3f s untraced; warm %.1f vs %.1f ops/s",
		coldB.Seconds(), coldA.Seconds(), rate(warmB), rate(warmA))

	counts := sys.counters()
	for _, k := range counterNames {
		rep.set(k, counts[k], "count")
	}
	perCell := time.Duration(0)
	if h, ok := sys.(*httpSystem); ok {
		var n, bad int64
		perCell, n, bad, err = h.distOverhead(ctx, 15, outB.refs.matrix)
		if err != nil {
			return fmt.Errorf("dist overhead: %w", err)
		}
		rep.ops(n, bad)
	}
	rep.set("dist.overhead_us_per_cell", us(perCell), "us")

	// The probes below go through the traced stores too; keep their
	// operations out of the workload's spans.
	end, spans := tr.now(), tr.snapshot()
	layerSpans(analyze(spans, 0, end), analyze(spans, warmStart, warmEnd), w.entry, rep)
	cache, traces := sys.probes()
	if err := storeProbes(ctx, cache, traces, outA.mx, cfg.budget, cfg.dir, rep); err != nil {
		return err
	}
	rep.note("spans: %d (cold pass from %v, warm phase %v–%v), written to %s",
		len(spans), coldStart, warmStart, warmEnd, cfg.spans)

	rep.set("smt.grid_s", outA.smtDur.Seconds(), "s")
	rep.set("vpred.grid_s", outA.vpredDur.Seconds(), "s")
	modelReport(outA, rep, true)
	if err := layerBenchmarks(rep); err != nil {
		return err
	}
	return tr.write(cfg.spans)
}

// counterNames are the per-layer counts every traced run reports; a
// layer a workload does not have reads zero.
var counterNames = []string{
	"sim.cache_hits", "server.computes", "server.coalesced",
	"sim.peer_pushes", "sim.peer_hits", "vm.runs",
	"dist.remote_jobs", "dist.retried_jobs", "dist.local_jobs",
}

// endpoints are the daemon endpoints the load client calls.
var endpoints = []string{"run", "matrix", "smt", "vpred"}

// layerSpans derives the span-based per-layer metrics: per-endpoint
// handler and self times on the entry daemon and the client's own
// overhead over the warm phase; hop, storage and per-layer self totals
// over the whole traced run.
func layerSpans(all, warm *analysis, entry string, rep *report) {
	for _, ep := range endpoints {
		keep := func(s span) bool { return s.Layer == layerServer && s.Node == entry && s.Name == ep }
		rep.set("server.handler_us."+ep, us(medianDur(warm.durs(false, keep))), "us")
		rep.set("server.self_us."+ep, us(medianDur(warm.durs(true, keep))), "us")
	}
	rep.set("http.client_overhead_us", us(medianDur(warm.clientOverhead())), "us")
	rep.set("dist.worker_hop_us", us(medianDur(warm.durs(false, func(s span) bool { return s.Layer == layerDist }))), "us")
	for _, op := range []string{"read", "write"} {
		keep := func(s span) bool { return s.Layer == layerStorage && s.Name == op }
		rep.set("storage."+op+"_us", us(medianDur(all.durs(false, keep))), "us")
	}
	for _, l := range []string{layerHTTP, layerServer, layerDist, layerSim, layerStorage} {
		rep.set("self_ms."+l, ms(all.selfTotal(l)), "ms")
	}
}

// rate is a warm phase's operations per second.
func rate(w *warmResult) float64 { return float64(w.attempted) / w.elapsed.Seconds() }
