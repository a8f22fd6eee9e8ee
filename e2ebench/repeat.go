package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json repeat mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs one workload (or all) k times, each in a fresh
// process with its own seed, and prints each end-to-end metric's
// median, quartiles and spread — the distance between the quartiles as
// a share of the median — against its bound in BENCHMARK.json, when
// that file is in the working directory.
func repeatRuns(name string, seed int64, seconds, k int) error {
	names := []string{name}
	if name == "all" {
		names = nil
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
	}
	bounds := map[string]float64{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, n := range names {
		if _, err := findWorkload(n); err != nil {
			return err
		}
		values := map[string][]float64{}
		attempted, failed := 0, 0
		for i := 0; i < k; i++ {
			s := seed + int64(i)
			res, err := runChild(self, n, s, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", n, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: outputs failed their checks", n, s)
			}
			attempted += res.Attempted
			failed += res.Failed
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d, %d loads attempted, %d failed\n", n, k, seed, seed+int64(k)-1, attempted, failed)
		fmt.Printf("  %-18s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
		var ms []string
		for m := range values {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		for _, m := range ms {
			q1, q2, q3 := quartiles(values[m])
			spread := ratio(q3-q1, q2)
			bound := "-"
			if b, ok := bounds[m]; ok {
				bound = strconv.FormatFloat(100*b, 'f', 1, 64) + "%"
			}
			fmt.Printf("  %-18s %12.4f %12.4f %12.4f %7.1f%% %8s\n", m, q1, q2, q3, 100*spread, bound)
		}
	}
	return nil
}

// runChild runs one plain run in a child process and parses its last
// line.
func runChild(self, name string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("parsing the run's result: %w", err)
	}
	return &res, nil
}
