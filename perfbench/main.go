// Command perfbench is the repository's end-to-end serving benchmark. It
// starts the hullserve binary built from the tree under test, drives one
// workload over a single keep-alive loopback connection in a closed loop
// at concurrency 1, checks every answer against an independent oracle,
// and prints the end-to-end metrics declared in BENCHMARK.json. With
// -trace 1 it also hosts serve.NewServer in its own process and replays
// the workload through each layer's public entry point, printing the
// per-layer metrics instead. With -steady k it runs every workload k
// times on k seeds and reports each metric's median and quartiles.
//
// Run it from the repository root through perfbench/run.sh, which builds
// both binaries first:
//
//	bash perfbench/run.sh --workload bulk2d --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --steady 10 --seconds 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// defaultSeed is the workload seed used when -seed is not given.
const defaultSeed = 1

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the harness reads: the metric names
// and units it must print, and the bounds the steadiness mode checks.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// extraPrefix marks the output line carrying metrics that some workloads
// lack (write_p50_ms outside stream-rw), so they stay out of the result
// line, whose metric set must be the same on every workload.
const extraPrefix = "extra: "

func main() {
	var (
		wname   = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed: every input is derived from it")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced in-process replay")
		server  = flag.String("server", "", "path of the hullserve binary built from the tree under test")
		spath   = flag.String("spec", "BENCHMARK.json", "benchmark declaration")
		steady  = flag.Int("steady", 0, "run every workload this many times on consecutive seeds and report each metric's median and quartiles")
	)
	flag.Parse()
	sp, err := loadSpec(*spath)
	if err != nil {
		fatalf("%v", err)
	}
	if *server == "" {
		fatalf("-server is required")
	}
	if _, err := os.Stat(*server); err != nil {
		fatalf("hullserve binary: %v", err)
	}
	if *steady > 0 {
		if err := runSteady(sp, *steady, *seed, *seconds, *server, *spath, *wname); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, err := newWorkload(*wname, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	printEnv(*wname, *seed, *seconds, *trace, *server)

	measured := map[string]float64{}
	var extra map[string]float64
	run, err := runE2E(w, *server, *seconds, *trace == 1)
	if err != nil {
		fatalf("%v", err)
	}
	want := sp.EndToEnd
	if *trace == 1 {
		tr, err := runTrace(w)
		if err != nil {
			fatalf("%v", err)
		}
		run.merge(tr.run)
		for k, v := range tr.layers(run) {
			measured[k] = v
		}
		want = sp.PerLayer
	} else {
		for k, v := range run.endToEnd() {
			measured[k] = v
		}
		extra = run.extra()
	}
	fmt.Printf("  ops_attempted %d\n  ops_failed %d\n", run.attempted, run.failed)
	for _, msg := range run.failures {
		fmt.Printf("  failure: %s\n", msg)
	}
	res := result{Correct: run.failed == 0, Attempted: run.attempted, Failed: run.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := measured[m.Name]
		if !ok {
			fatalf("metric %q declared in %s is not measured", m.Name, *spath)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("  %-24s %14.4f %s\n", m.Name, v, m.Unit)
	}
	if len(extra) > 0 {
		b, _ := json.Marshal(extra)
		fmt.Println(extraPrefix + string(b))
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printEnv records the host and toolchain with every run: the CPU count,
// GOMAXPROCS (the server inherits the same environment), and the Go
// version the server binary was built with.
func printEnv(wname string, seed uint64, seconds float64, trace int, server string) {
	gover := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok && bi.GoVersion != "" {
		gover = bi.GoVersion
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d\n", wname, seed, seconds, trace)
	fmt.Printf("  nproc=%d GOMAXPROCS=%d go=%s server=%s (%s)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gover, server, serverGoVersion(server))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// sortedKeys returns m's keys in order, for deterministic printing.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func workloadNames(sp *spec, only string) []string {
	var out []string
	for _, w := range sp.Workloads {
		if only == "" || strings.EqualFold(only, w.Name) {
			out = append(out, w.Name)
		}
	}
	return out
}
