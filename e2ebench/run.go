package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// setupReps is how many times a plain run sets its workload up;
// setup_s is the median.
const setupReps = 7

// Units of every metric, end-to-end and per-layer.
var units = map[string]string{
	"setup_s":          "s",
	"throughput_rps":   "loads/s",
	"latency_p50_ms":   "ms",
	"cpu_us_per_req":   "us",
	"alloc_kb_per_req": "KiB",
	"wire_kb_per_req":  "KiB",
	"peak_heap_mb":     "MiB",

	"load.lag_p99_ms":                 "ms",
	"load.trace_overhead_pct":         "%",
	"runtime.sched_latency_p99_us":    "us",
	"runtime.gc_cycles_per_kreq":      "1/kload",
	"http2.server_writes_per_req":     "1/load",
	"http2.server_reads_per_req":      "1/load",
	"http2.overhead_bytes_per_req":    "B/load",
	"core.server_p50_us":              "us",
	"core.lookup_p50_us":              "us",
	"core.serve_p50_us":               "us",
	"core.server_share":               "ratio",
	"core.capable_load_p50_ms":        "ms",
	"core.incapable_load_p50_ms":      "ms",
	"overload.cache_hit_ratio":        "ratio",
	"overload.gen_runs_per_kreq":      "1/kload",
	"overload.evictions_per_kreq":     "1/kload",
	"overload.coalesced_per_kreq":     "1/kload",
	"overload.admission_wait_p99_ms":  "ms",
	"genai.generate_p50_ms":           "ms",
	"genai.server_artifact_hit_ratio": "ratio",
	"genai.client_artifact_hit_ratio": "ratio",
	"genai.model_runs_per_req":        "1/load",
	"cdn.hit_ratio":                   "ratio",
	"cdn.hit_p50_us":                  "us",
	"cdn.miss_p50_us":                 "us",
	"cdn.origin_pulls_per_kreq":       "1/kload",
	"cdn.inval_lag_p50_ms":            "ms",
	"telemetry.cost_us_per_req":       "us",
}

func metricsOf(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(values))
	for name, v := range values {
		u, ok := units[name]
		if !ok {
			panic("metric " + name + " has no unit")
		}
		out[name] = metric{Value: v, Unit: u}
	}
	return out
}

// tally sums attempts and failures over phases; a phase whose checks
// failed makes the run incorrect.
func tally(res *result, phases ...*phase) {
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.wrong > 0 {
			res.Correct = false
		}
		if p.firstErr != nil {
			logf("first error: %v (%d failed, %d wrong of %d)", p.firstErr, p.failed, p.wrong, p.attempted)
		}
	}
}

// setUp builds a rig for wl, timing it.
func setUp(wl *workload, traced bool) (*rig, time.Duration, error) {
	start := time.Now()
	r := newRig(wl, traced)
	if err := wl.setup(r); err != nil {
		r.close()
		return nil, 0, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	return r, time.Since(start), nil
}

// during runs body with the workload's background activity (the
// republish stream on edge-relay) going, and folds a wrong output it
// saw into ok.
func (r *rig) during(seed int64, ok *bool, body func() error) error {
	if r.edge != nil {
		r.edge.startRepublishing(r.srv, seed)
	}
	err := body()
	if r.edge != nil {
		rerr := r.edge.stopRepublishing()
		var w wrongOutput
		if errors.As(rerr, &w) {
			logf("republish: %v", rerr)
			*ok = false
		} else if rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// plainRun measures the end-to-end metrics: set-up (several times), a
// warm-up, an open-loop phase at the workload's fixed offered rate and
// a closed-loop phase at its fixed concurrency.
func plainRun(wl *workload, seed int64, seconds int) (*result, error) {
	total := time.Duration(seconds) * time.Second
	var setups []float64
	var r *rig
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
		}
		var took time.Duration
		var err error
		if r, took, err = setUp(wl, false); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer r.close()
	runtime.GC()

	res := &result{Correct: true}
	var warm, open, closed *phase
	err := r.during(seed, &res.Correct, func() error {
		var err error
		if warm, err = r.closedLoop(wl.schedule(seed+2, wl.loadsIn(total)), wl.inflight, total/10); err != nil {
			return err
		}
		if open, err = r.openLoop(wl.schedule(seed, wl.loadsIn(total*45/100))); err != nil {
			return err
		}
		closed, err = r.closedLoop(wl.schedule(seed+1, wl.loadsIn(total)), wl.inflight, total*45/100)
		return err
	})
	if err != nil {
		return nil, err
	}
	tally(res, warm, open, closed)

	if len(open.slices) == 0 || len(closed.slices) == 0 || closed.loads == 0 {
		return nil, errors.New("a phase ended before its first slice")
	}
	// Another tenant on the machine slows whole stretches of a run (its
	// steal time, read from /proc/stat during runs, ranged from 0.5% to
	// 12%), and it only ever slows. Throughput and CPU therefore come
	// from a phase's best quartile of slices, latency from the median of
	// its slices' medians, and counts from whole phases.
	var p50s []float64
	for _, lat := range open.latBySlice {
		if len(lat) > 0 {
			p50s = append(p50s, median(lat))
		}
	}
	overClosed := func(f func(sl slice) float64) []float64 {
		var xs []float64
		for _, sl := range closed.slices {
			if sl.loads > 0 {
				xs = append(xs, f(sl))
			}
		}
		return xs
	}
	lowQ := func(xs []float64) float64 { q1, _, _ := quartiles(xs); return q1 }
	highQ := func(xs []float64) float64 { _, _, q3 := quartiles(xs); return q3 }
	res.Metrics = metricsOf(map[string]float64{
		"setup_s":          median(setups),
		"throughput_rps":   highQ(overClosed(func(sl slice) float64 { return float64(sl.loads) / sl.dur.Seconds() })),
		"latency_p50_ms":   median(p50s),
		"cpu_us_per_req":   lowQ(overClosed(func(sl slice) float64 { return float64(sl.cpu) / float64(time.Microsecond) / float64(sl.loads) })),
		"alloc_kb_per_req": float64(closed.after.allocBytes-closed.before.allocBytes) / 1024 / float64(closed.loads),
		"wire_kb_per_req":  float64(wireBytes(closed)) / 1024 / float64(closed.loads),
		"peak_heap_mb":     median(overClosed(func(sl slice) float64 { return float64(sl.peakHeap) / (1 << 20) })),
	})
	tl, q := tail(open.lat, 0.99)
	lag, lagQ := tail(open.lag, 0.99)
	logf("%s seed %d: set-up %.3v s; open loop: %d loads at %.0f/s, p50 %.3f ms over all, p%.1f %.3f ms, dispatcher lag p%.1f %.3f ms; closed loop: %d loads in %v",
		wl.name, seed, setups, len(open.lat), float64(len(open.lat))/open.elapsed.Seconds(), median(open.lat), 100*q, tl,
		100*lagQ, lag, closed.loads, closed.elapsed.Round(time.Millisecond))
	return res, nil
}

// tracedRun measures the per-layer metrics. The same open-loop schedule
// runs three times: with telemetry attached and nothing else traced,
// then traced (server spans drained, edge requests timed), then with
// the server's telemetry detached.
func tracedRun(wl *workload, seed int64, seconds int) (*result, error) {
	total := time.Duration(seconds) * time.Second
	r, _, err := setUp(wl, true)
	if err != nil {
		return nil, err
	}
	defer r.close()
	runtime.GC()

	res := &result{Correct: true}
	sched := wl.schedule(seed, wl.loadsIn(total*3/10))
	var warm, plain, traced, detached *phase
	var spans *spanDrain
	err = r.during(seed, &res.Correct, func() error {
		var err error
		if warm, err = r.closedLoop(wl.schedule(seed+2, wl.loadsIn(total)), wl.inflight, total/10); err != nil {
			return err
		}
		if plain, err = r.openLoop(sched); err != nil {
			return err
		}
		spans = startSpanDrain(r.set)
		if r.edge != nil {
			r.edge.timing.Store(true)
		}
		traced, err = r.openLoop(sched)
		if r.edge != nil {
			r.edge.timing.Store(false)
		}
		spans.finish()
		if err != nil {
			return err
		}
		r.srv.EnableTelemetry(nil)
		detached, err = r.openLoop(sched)
		return err
	})
	if err != nil {
		return nil, err
	}
	tally(res, warm, plain, traced, detached)
	if traced.loads == 0 || plain.loads == 0 || detached.loads == 0 {
		return nil, errors.New("a traced-run phase completed no load")
	}
	res.Metrics = metricsOf(layerMetrics(r, plain, traced, detached, spans))
	return res, nil
}
