package main

import (
	"math"
	"time"

	"sww/internal/telemetry"
)

// A spanDrain collects the site server's own request traces while a
// traced phase runs. The server keeps them in a ring (sized by
// traceRing in a traced run); the drain copies finished traces out
// before the ring wraps.
type spanDrain struct {
	set   *telemetry.Set
	first uint64 // traces with a higher ID belong to the phase

	// Written by the drain goroutine only, read after finish.
	seen map[uint64]bool
	// Durations in µs: whole request, and the lookup, serve, admission
	// and generate stages.
	total, lookup, serve, admission, generate []float64

	stop, done chan struct{}
}

func startSpanDrain(set *telemetry.Set) *spanDrain {
	d := &spanDrain{set: set, first: set.Traces.Total(), seen: map[uint64]bool{},
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		last := d.first
		for {
			select {
			case <-d.stop:
				d.collect()
				return
			case <-tick.C:
			}
			if n := set.Traces.Total(); n-last >= traceRing/4 {
				d.collect()
				last = n
			}
		}
	}()
	return d
}

// finish stops the drain after a last collection; call it once every
// load of the phase has completed.
func (d *spanDrain) finish() {
	close(d.stop)
	<-d.done
}

func (d *spanDrain) collect() {
	us := func(t time.Duration) float64 { return float64(t) / float64(time.Microsecond) }
	for _, tr := range d.set.Traces.Snapshot() {
		if !tr.Done || tr.ID <= d.first || d.seen[tr.ID] {
			continue
		}
		d.seen[tr.ID] = true
		d.total = append(d.total, us(tr.Total))
		for _, sp := range tr.Spans {
			switch sp.Stage {
			case "lookup":
				d.lookup = append(d.lookup, us(sp.Dur))
			case "serve":
				d.serve = append(d.serve, us(sp.Dur))
			case "admission":
				d.admission = append(d.admission, us(sp.Dur))
			case "generate":
				d.generate = append(d.generate, us(sp.Dur))
			}
		}
	}
}

// histQuantile returns the upper bound of the bucket holding the
// q-quantile of a runtime/metrics histogram given as bucket bounds and
// counts.
func histQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= need {
			if hi := bounds[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}

// cpuPerLoad is a phase's process CPU per completed load, in µs.
func cpuPerLoad(p *phase) float64 {
	return ratio(float64(p.after.cpu-p.before.cpu)/float64(time.Microsecond), float64(p.loads))
}

// layerMetrics computes every per-layer metric from the traced run's
// three phases. A layer a workload does not exercise reads zero.
func layerMetrics(r *rig, plain, traced, detached *phase, spans *spanDrain) map[string]float64 {
	b, a := traced.before, traced.after
	loads := float64(traced.loads)
	perLoad := func(x float64) float64 { return x / loads }
	perK := func(x uint64) float64 { return 1000 * float64(x) / loads }

	sched := make([]uint64, len(a.sched))
	for i := range sched {
		sched[i] = a.sched[i] - b.sched[i]
	}
	ov := a.overload
	ob := b.overload
	genRuns := ov.GenRuns - ob.GenRuns
	cacheHits := ov.CacheHits - ob.CacheHits
	coalesced := ov.Coalesced - ob.Coalesced
	artHits, artMiss := a.artifacts.Hits-b.artifacts.Hits, a.artifacts.Misses-b.artifacts.Misses
	cliHits, cliMiss := a.clientArt.Hits-b.clientArt.Hits, a.clientArt.Misses-b.clientArt.Misses
	edgeHits, edgeMiss := a.edgeHits-b.edgeHits, a.edgeMisses-b.edgeMisses

	lag, lagQ := tail(traced.lag, 0.99)
	admission, admQ := tail(spans.admission, 0.99)
	logf("traced phase: %d loads; %d server traces (%d started); lag p%.1f; admission wait p%.1f over %d samples",
		traced.loads, len(spans.total), a.traces-b.traces, lagQ*100, admQ*100, len(spans.admission))

	m := map[string]float64{
		"load.lag_p99_ms":              lag,
		"load.trace_overhead_pct":      100 * ratio(median(traced.lat)-median(plain.lat), median(plain.lat)),
		"runtime.sched_latency_p99_us": histQuantile(a.schedBounds, sched, 0.99) * 1e6,
		"runtime.gc_cycles_per_kreq":   perK(a.gcCycles - b.gcCycles),
		"http2.server_writes_per_req":  perLoad(float64(a.server.dataSegs - b.server.dataSegs)),
		"http2.server_reads_per_req":   perLoad(float64(a.serverReads - b.serverReads)),
		"http2.overhead_bytes_per_req": perLoad(float64(wireBytes(traced)) - float64(traced.body)),

		"core.server_p50_us":         median(spans.total),
		"core.lookup_p50_us":         median(spans.lookup),
		"core.serve_p50_us":          median(spans.serve),
		"core.server_share":          ratio(sum(spans.total)/1000, sum(traced.service)),
		"core.capable_load_p50_ms":   median(traced.latCapable),
		"core.incapable_load_p50_ms": median(traced.latIncapable),

		"overload.cache_hit_ratio":       ratio(float64(cacheHits), float64(cacheHits+genRuns+coalesced)),
		"overload.gen_runs_per_kreq":     perK(genRuns),
		"overload.evictions_per_kreq":    perK(ov.CacheEvictions - ob.CacheEvictions),
		"overload.coalesced_per_kreq":    perK(coalesced),
		"overload.admission_wait_p99_ms": admission / 1000,

		"genai.generate_p50_ms":           median(spans.generate) / 1000,
		"genai.server_artifact_hit_ratio": ratio(float64(artHits), float64(artHits+artMiss)),
		"genai.client_artifact_hit_ratio": ratio(float64(cliHits), float64(cliHits+cliMiss)),
		"genai.model_runs_per_req":        perLoad(float64(artMiss + cliMiss)),

		"cdn.hit_ratio":             ratio(float64(edgeHits), float64(edgeHits+edgeMiss)),
		"cdn.origin_pulls_per_kreq": 0,

		"telemetry.cost_us_per_req": cpuPerLoad(plain) - cpuPerLoad(detached),
	}
	if e := r.edge; e != nil {
		e.timesMu.Lock()
		m["cdn.hit_p50_us"] = median(e.hit)
		m["cdn.miss_p50_us"] = median(e.miss)
		m["cdn.inval_lag_p50_ms"] = median(e.inval)
		e.timesMu.Unlock()
		pulls := (a.originReqs - b.originReqs) - uint64(a.directGets-b.directGets)
		m["cdn.origin_pulls_per_kreq"] = perK(pulls)
	} else {
		m["cdn.hit_p50_us"], m["cdn.miss_p50_us"], m["cdn.inval_lag_p50_ms"] = 0, 0, 0
	}
	return m
}
