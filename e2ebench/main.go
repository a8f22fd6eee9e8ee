// Command e2ebench is the repository's end-to-end benchmark. It runs
// one of three seeded workloads against the real core.Server, cdn.Origin
// and cdn.Edge over loopback TCP, checks every reply, and prints one
// JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ones. --repeat k runs the
// workload k times with consecutive seeds and prints each end-to-end
// metric's median and quartiles against its bound in BENCHMARK.json.
// See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// A workload is one seeded traffic mix against one site set-up.
type workload struct {
	name     string
	pages    int     // corpus size; page index is popularity rank
	openRPS  float64 // offered load of the open-loop phase, loads/s
	inflight int     // loads kept in flight by the closed-loop phase
	setup    func(*rig) error
}

var workloads = []*workload{
	{name: "warm-serve", pages: 256, openRPS: 600, inflight: 8, setup: setupWarm},
	{name: "cold-generate", pages: 512, openRPS: 100, inflight: 8, setup: setupCold},
	{name: "edge-relay", pages: 256, openRPS: 400, inflight: 8, setup: setupEdge},
}

// errNoWorkload names an unknown workload.
var errNoWorkload = errors.New("unknown workload")

func findWorkload(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("%w %q", errNoWorkload, name)
}

// A metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: warm-serve, cold-generate or edge-relay (with --repeat also all)")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 30, "seconds of measured load per run")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	repeat := flag.Int("repeat", 0, "run k times with seeds seed..seed+k-1 and print medians and quartiles")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace, repeat int) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if repeat > 0 {
		return repeatRuns(name, seed, seconds, repeat)
	}
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	// Load generator and servers share one process and at most two
	// CPUs, so figures compare across machines with more.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	var res *result
	if trace == 1 {
		res, err = tracedRun(wl, seed, seconds)
	} else {
		res, err = plainRun(wl, seed, seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
