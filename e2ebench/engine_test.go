package main

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sww/internal/core"
	"sww/internal/workload/loadgen"
)

func TestScheduleIsSeeded(t *testing.T) {
	wl := &workload{name: "t", pages: 64, openRPS: 500}
	a, b := wl.schedule(7, 400), wl.schedule(7, 400)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if len(a) != 400 {
		t.Fatalf("schedule has %d loads, want 400", len(a))
	}
	// The offered rate is a constant of the workload: n loads span n/RPS.
	if want := 400 * time.Second / 500; a[len(a)-1].At < want-time.Microsecond || a[len(a)-1].At > want+time.Microsecond {
		t.Errorf("last load due at %v, want %v", a[len(a)-1].At, want)
	}
	if reflect.DeepEqual(a, wl.schedule(8, 400)) {
		t.Error("different seeds gave the same schedule")
	}
}

// TestOpenLoopReportsLagWithoutParkedGoroutines drives the dispatcher
// with a stand-in load and checks that every load is released and its
// lag recorded, and that goroutines track loads in flight rather than
// loads still to come.
func TestOpenLoopReportsLagWithoutParkedGoroutines(t *testing.T) {
	srv, err := core.NewServer("", "")
	if err != nil {
		t.Fatal(err)
	}
	wl := &workload{name: "t", pages: 16, openRPS: 400}
	r := newRig(wl, false)
	r.srv = srv
	base := runtime.NumGoroutine()
	var most atomic.Int64
	r.load = func(ctx context.Context, q loadgen.Request, out *loadOut) error {
		if n := int64(runtime.NumGoroutine()); n > most.Load() {
			most.Store(n)
		}
		time.Sleep(200 * time.Microsecond)
		out.body = 1
		return nil
	}
	sched := wl.schedule(3, 200)
	p, err := r.openLoop(sched)
	if err != nil {
		t.Fatal(err)
	}
	if p.loads != len(sched) || len(p.lag) != len(sched) || len(p.lat) != len(sched) {
		t.Fatalf("%d loads, %d lags, %d latencies recorded for %d scheduled", p.loads, len(p.lag), len(p.lat), len(sched))
	}
	lag, q := tail(p.lag, 0.99)
	if lag < 0 || q <= 0 {
		t.Errorf("dispatcher lag p%.0f = %v ms", q*100, lag)
	}
	if got := layerMetrics(r, p, p, p, &spanDrain{})["load.lag_p99_ms"]; got != lag {
		t.Errorf("the traced run reports load.lag_p99_ms = %v, want the dispatcher's lag %v", got, lag)
	}
	for i, l := range p.lat {
		if l < 0 {
			t.Fatalf("latency %d is negative: %v", i, l)
		}
	}
	if extra := most.Load() - int64(base); extra > int64(len(sched)/4) {
		t.Errorf("%d goroutines beyond the baseline during a %d-load schedule: loads are parked ahead of time", extra, len(sched))
	}
}
