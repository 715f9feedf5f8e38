package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is statistics.median: the mean of the middle two for even counts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is statistics.quantiles(xs, n=4) with its default exclusive
// method, the rule the benchmark's steadiness is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// runSteady is the steadiness mode: it runs each workload k times, on
// seeds seed..seed+k-1, each run a child process exactly as the contract
// invokes one, and prints each metric's median, quartiles and spread
// (interquartile distance over the median). A metric whose spread exceeds
// its bound is flagged; setup_s is flagged but only its median is gated.
func runSteady(sp *spec, k int, seed uint64, seconds float64, server, specPath, only string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	flagged := 0
	for _, wname := range workloadNames(sp, only) {
		vals := map[string][]float64{}
		for i := 0; i < k; i++ {
			s := seed + uint64(i)
			cmd := exec.Command(self, "-workload", wname, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0",
				"-server", server, "-spec", specPath)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %v\n%s", wname, s, err, out)
			}
			res, extra, err := parseRun(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %v", wname, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", wname, s, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
			for name, v := range extra {
				vals[name] = append(vals[name], v)
			}
			fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d done\n", wname, s)
		}
		fmt.Printf("%s (%d runs)\n", wname, k)
		fmt.Printf("  %-20s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, name := range sortedKeys(vals) {
			xs := vals[name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			mark := ""
			b, gated := bounds[name]
			switch {
			case gated && spread > b:
				mark = "  SPREAD ABOVE BOUND"
				if name != "setup_s" {
					flagged++
				}
			case gated && spread > b/3:
				mark = "  above a third of bound"
			}
			bs := "-"
			if gated {
				bs = strconv.FormatFloat(b, 'g', -1, 64)
			}
			fmt.Printf("  %-20s %12.4f %12.4f %12.4f %8.4f %6s%s\n", name, med, q1, q3, spread, bs, mark)
			fmt.Printf("  %-20s %v\n", "", xs)
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d metric spreads exceed their bounds", flagged)
	}
	return nil
}

// parseRun reads a child run's result line and its extra-metrics line.
func parseRun(out []byte) (result, map[string]float64, error) {
	var res result
	var extra map[string]float64
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, extraPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &extra); err != nil {
				return res, nil, err
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, nil, fmt.Errorf("result line: %v", err)
	}
	return res, extra, nil
}
