package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sww/internal/genai"
	"sww/internal/overload"
	"sww/internal/telemetry"
	"sww/internal/workload/loadgen"
)

// loadTimeout bounds one load; a load that takes longer has failed.
const loadTimeout = 30 * time.Second

// maxInFlight caps the open loop's loads in flight. The program's HTTP/2
// client fails a request outright once a connection has as many open
// streams as the server allows (100 by default) instead of waiting for
// one to free up; a load holds at most two streams at a time, so with
// this cap a load waits for a stream, as a browser's request would, and
// the wait counts in its latency.
const maxInFlight = 50

// A snapshot is every counter the benchmark reads, at one instant.
// Phases are measured as the difference of two snapshots.
type snapshot struct {
	cpu         time.Duration // process user+sys
	allocBytes  uint64
	gcCycles    uint64
	sched       []uint64  // /sched/latencies:seconds bucket counts
	schedBounds []float64 // and the buckets' bounds
	client      tcpCounters
	server      tcpCounters
	serverReads int64
	overload    overload.Stats
	artifacts   genai.ArtifactCacheStats
	clientArt   genai.ArtifactCacheStats
	edgeHits    uint64
	edgeMisses  uint64
	originReqs  uint64
	directGets  int64
	traces      uint64 // server request traces started
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/latencies:seconds"},
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// requestOutcomes are the outcome labels of the site server's
// sww_requests_total counter that a served request can carry.
var requestOutcomes = []string{"prompt", "policy-flip", "traditional", "cached", "shed", "asset", "not-found", "error"}

func (r *rig) snapshot() (snapshot, error) {
	s := snapshot{cpu: processCPU()}
	metrics.Read(runtimeSamples)
	s.allocBytes = runtimeSamples[0].Value.Uint64()
	s.gcCycles = runtimeSamples[1].Value.Uint64()
	h := runtimeSamples[2].Value.Float64Histogram()
	s.sched = append([]uint64(nil), h.Counts...)
	s.schedBounds = h.Buckets
	var err error
	if s.client, err = r.clientSocks.counters(); err != nil {
		return s, err
	}
	if s.server, err = r.serverSocks.counters(); err != nil {
		return s, err
	}
	s.serverReads = r.serverSocks.reads.Load()
	s.overload = r.srv.OverloadStats()
	s.artifacts = r.srv.ArtifactCacheStats()
	if r.proc != nil {
		s.clientArt = r.proc.Pipeline.Cache.Stats()
	}
	if r.edge != nil {
		for _, e := range r.edge.edges {
			st := e.Stats()
			s.edgeHits += st.Hits
			s.edgeMisses += st.Misses
		}
		s.directGets = r.edge.directGets.Load()
	}
	s.traces = r.set.Traces.Total()
	for _, o := range requestOutcomes {
		s.originReqs += r.set.Registry.Counter(telemetry.WithLabel("sww_requests_total", "outcome", o)).Load()
	}
	return s, nil
}

// slices is how many equal stretches a measured phase is cut into.
// Figures taken over a phase's slices rather than its whole length let
// a burst of interference from outside the process (another tenant
// taking the vCPU) move a few slices rather than the figure.
const slices = 20

// A slice is one stretch of a phase, as counted at its two ends.
type slice struct {
	dur      time.Duration
	loads    int64 // completed without error
	cpu      time.Duration
	alloc    uint64
	wire     uint64 // bytes on the client sockets, both directions
	peakHeap uint64 // highest heap sampled in the slice
}

// A phase is one measured stretch of load.
type phase struct {
	before, after snapshot

	attempted, failed, wrong int
	firstErr                 error

	loads   int          // completed without error
	done    atomic.Int64 // loads, readable while the phase runs
	body    int64        // response body bytes of completed loads
	elapsed time.Duration

	// Open loop, in ms: latency from each load's intended send instant,
	// in all and by device and by the slice the load was due in;
	// service time from the actual send; and how late the dispatcher
	// released each load.
	lat, latCapable, latIncapable, service, lag []float64
	latBySlice                                  [slices][]float64
	sliceLen                                    time.Duration

	slices []slice
}

func (p *phase) record(q loadgen.Request, out loadOut, err error, lat, service time.Duration) {
	p.attempted++
	var w wrongOutput
	switch {
	case errors.As(err, &w):
		p.wrong++
	case err != nil:
		p.failed++
	}
	if err != nil {
		if p.firstErr == nil {
			p.firstErr = err
		}
		return
	}
	p.loads++
	p.done.Add(1)
	p.body += int64(out.body)
	if lat < 0 {
		return
	}
	ms := float64(lat) / float64(time.Millisecond)
	p.lat = append(p.lat, ms)
	if q.Capable {
		p.latCapable = append(p.latCapable, ms)
	} else {
		p.latIncapable = append(p.latIncapable, ms)
	}
	k := min(int(q.At/p.sliceLen), slices-1)
	p.latBySlice[k] = append(p.latBySlice[k], ms)
	p.service = append(p.service, float64(service)/float64(time.Millisecond))
}

// wireBytes is the bytes that crossed the client sockets during p,
// both directions.
func wireBytes(p *phase) uint64 {
	d := p.after.client.sub(p.before.client)
	return d.acked + d.received
}

// sliceMark is what a slice boundary reads.
type sliceMark struct {
	at    time.Time
	loads int64
	cpu   time.Duration
	alloc uint64
	wire  uint64
}

func (r *rig) mark(p *phase, sample []metrics.Sample) sliceMark {
	metrics.Read(sample)
	m := sliceMark{at: time.Now(), loads: p.done.Load(), cpu: processCPU(), alloc: sample[0].Value.Uint64()}
	if c, err := r.clientSocks.counters(); err == nil {
		m.wire = c.acked + c.received
	}
	return m
}

// slicePhase cuts the running phase p into slices of p.sliceLen,
// reading the counters at each boundary and the heap every few
// milliseconds, until all slices are taken or stop is called.
func (r *rig) slicePhase(p *phase) (stop func()) {
	quit := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		from := r.mark(p, sample)
		next := from.at.Add(p.sliceLen)
		var peak uint64
		for len(p.slices) < slices {
			var now time.Time
			select {
			case <-quit:
				return
			case now = <-tick.C:
			}
			metrics.Read(heap)
			peak = max(peak, heap[0].Value.Uint64())
			if now.Before(next) {
				continue
			}
			to := r.mark(p, sample)
			p.slices = append(p.slices, slice{
				dur:      to.at.Sub(from.at),
				loads:    to.loads - from.loads,
				cpu:      to.cpu - from.cpu,
				alloc:    to.alloc - from.alloc,
				wire:     to.wire - from.wire,
				peakHeap: peak,
			})
			from, peak, next = to, 0, next.Add(p.sliceLen)
		}
	}()
	return func() {
		close(quit)
		<-finished
	}
}

// measure runs body between two snapshots, cutting it into slices of
// sliceLen.
func (r *rig) measure(sliceLen time.Duration, body func(p *phase)) (*phase, error) {
	p := &phase{sliceLen: sliceLen}
	var err error
	if p.before, err = r.snapshot(); err != nil {
		return nil, err
	}
	stop := r.slicePhase(p)
	body(p)
	stop()
	if p.after, err = r.snapshot(); err != nil {
		return nil, err
	}
	return p, nil
}

// openLoop releases every load of sched at its intended instant from a
// single dispatcher: it sleeps until the next load is due and only then
// starts the goroutine that performs it, so no goroutine waits for a
// future load. Latency runs from the intended instant.
func (r *rig) openLoop(sched []loadgen.Request) (*phase, error) {
	span := sched[len(sched)-1].At
	return r.measure(span/slices+1, func(p *phase) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		slots := make(chan struct{}, maxInFlight)
		clock := telemetry.StartSchedule(time.Now().Add(5 * time.Millisecond))
		for _, q := range sched {
			due := clock.Intended(q.At)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			sent := time.Now()
			lag := sent.Sub(due)
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), loadTimeout)
				defer cancel()
				slots <- struct{}{}
				var out loadOut
				err := r.load(ctx, q, &out)
				<-slots
				lat := clock.LatencySince(q.At)
				service := time.Since(sent)
				mu.Lock()
				defer mu.Unlock()
				p.lag = append(p.lag, float64(lag)/float64(time.Millisecond))
				p.record(q, out, err, lat, service)
			}()
		}
		wg.Wait()
		p.elapsed = time.Since(clock.Start())
	})
}

// closedLoop keeps inflight loads running, cycling through sched, until
// d has passed; loads still in flight then are finished.
func (r *rig) closedLoop(sched []loadgen.Request, inflight int, d time.Duration) (*phase, error) {
	return r.measure(d/slices, func(p *phase) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		var next atomic.Int64
		start := time.Now()
		deadline := start.Add(d)
		for w := 0; w < inflight; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					q := sched[int(next.Add(1)-1)%len(sched)]
					ctx, cancel := context.WithTimeout(context.Background(), loadTimeout)
					var out loadOut
					err := r.load(ctx, q, &out)
					cancel()
					mu.Lock()
					p.record(q, out, err, -1, 0)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		p.elapsed = time.Since(start)
	})
}

// schedule returns the first n loads of the workload's seeded
// open-loop schedule. A fixed count, rather than a fixed span, gives
// every run the same number of latency samples.
func (wl *workload) schedule(seed int64, n int) []loadgen.Request {
	span := time.Duration(float64(n) / wl.openRPS * float64(time.Second))
	for {
		span *= 2
		sched := loadgen.Schedule(loadgen.Config{
			Seed:     seed,
			Pages:    wl.pages,
			Duration: span,
			RPS:      wl.openRPS,
		})
		if len(sched) >= n {
			// Stretch the schedule so its n loads span exactly n/RPS:
			// every seed offers the same mean rate, and only the
			// arrivals' burstiness varies.
			sched = sched[:n]
			scale := float64(n) / wl.openRPS * float64(time.Second) / float64(sched[n-1].At)
			for i := range sched {
				sched[i].At = time.Duration(float64(sched[i].At) * scale)
			}
			return sched
		}
	}
}

// loadsIn is how many loads the open loop offers in d.
func (wl *workload) loadsIn(d time.Duration) int { return int(wl.openRPS * d.Seconds()) }

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
