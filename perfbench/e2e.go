package main

import (
	"bufio"
	"bytes"
	"debug/buildinfo"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runStats is what one run measured, before it is reduced to metrics.
type runStats struct {
	kept       []slice      // the least-stolen third of the run's slices
	writes     []float64    // timed write latencies in ms, pooled over kept slices
	counters   counterDelta // /metrics deltas over the kept slices
	pointsSent int          // inline points in timed reads of kept slices
	dropped    int          // slices measured but not kept
	attempted  int
	failed     int
	failures   []string // first few failure messages
	oracle     *oracle  // shared by the run's slices, so references are computed once
}

// slice is what one server instance measured.
type slice struct {
	reads, writes []float64
	secs          float64
	setup         float64
	rssMB         float64
	counters      counterDelta
	pointsSent    int
	steal         float64 // share of all CPU time stolen while the instance ran
}

func (r *runStats) fail(msg string) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, msg)
	}
}

// merge folds another phase's operation counts into r.
func (r *runStats) merge(o runStats) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, m := range o.failures {
		if len(r.failures) < 5 {
			r.failures = append(r.failures, m)
		}
	}
}

// perSlice applies f to every kept slice.
func (r *runStats) perSlice(f func(sl slice) float64) []float64 {
	out := make([]float64, len(r.kept))
	for i, sl := range r.kept {
		out[i] = f(sl)
	}
	return out
}

func (r *runStats) endToEnd() map[string]float64 {
	return map[string]float64{
		"qps": median(r.perSlice(func(sl slice) float64 {
			return float64(len(sl.reads)+len(sl.writes)) / sl.secs
		})),
		"latency_p50_ms":     median(r.perSlice(func(sl slice) float64 { return quantile(sl.reads, 0.50) })),
		"latency_p95_ms":     median(r.perSlice(func(sl slice) float64 { return quantile(sl.reads, 0.95) })),
		"server_peak_rss_mb": median(r.perSlice(func(sl slice) float64 { return sl.rssMB })),
		"setup_s":            median(r.perSlice(func(sl slice) float64 { return sl.setup })),
	}
}

// extra holds the metrics only some workloads have: write_p50_ms exists
// only where the tape writes.
func (r *runStats) extra() map[string]float64 {
	reads := 0
	for _, sl := range r.kept {
		reads += len(sl.reads)
	}
	out := map[string]float64{"slices": float64(len(r.kept)), "reads_timed": float64(reads),
		"dropped": float64(r.dropped)}
	if len(r.writes) > 0 {
		out["write_p50_ms"] = quantile(r.writes, 0.50)
		out["writes_timed"] = float64(len(r.writes))
	}
	return out
}

// server is one hullserve process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	errb bytes.Buffer
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// newClient returns a client that keeps one connection open and reuses
// it for every request: the closed loop's single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// startServer execs hullserve with default flags except -addr, waits for
// its listening line and a /healthz answer, then sends the workload's
// set-up requests. It returns the elapsed set-up time and their answers.
func startServer(bin string, w *workload, c *http.Client) (*server, float64, []record, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, nil, err
	}
	s := &server{base: "http://127.0.0.1:" + strconv.Itoa(port), done: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port))
	s.cmd.Stderr = &s.errb
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, nil, err
	}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, nil, fmt.Errorf("start hullserve: %w", err)
	}
	ready := make(chan bool, 1)
	go func() {
		defer close(s.done)
		br := bufio.NewReader(out)
		line, err := br.ReadString('\n')
		ready <- err == nil && strings.Contains(line, "listening")
		_, _ = io.Copy(io.Discard, br)
		_ = s.cmd.Wait()
	}()
	if !<-ready {
		s.stop()
		return nil, 0, nil, fmt.Errorf("hullserve did not start: %s", strings.TrimSpace(s.errb.String()))
	}
	if err := s.waitHealthy(c); err != nil {
		s.stop()
		return nil, 0, nil, err
	}
	var recs []record
	for _, o := range w.setup {
		recs = append(recs, do(c, s.base, o))
	}
	return s, time.Since(t0).Seconds(), recs, nil
}

// waitHealthy polls /healthz until it answers 200; the listener may come
// up just after the listening line is printed.
func (s *server) waitHealthy(c *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hullserve /healthz: no answer in 10s (%v)", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop terminates the server and waits until the process has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMB reads the process's VmHWM from /proc.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// do sends one pre-encoded request and reads the whole answer, timing the
// round trip as the client sees it.
func do(c *http.Client, base string, o op) record {
	req, err := http.NewRequest(o.method, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return record{op: o, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return record{op: o, err: err, dur: ms(time.Since(t0))}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return record{op: o, status: resp.StatusCode, body: body, err: err, dur: ms(time.Since(t0))}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runE2E is one end-to-end run.
//
// A run cuts --seconds into slices of about the workload's sliceSecs and
// starts one hullserve process per slice, one after the other. Each is set
// up, warmed up and timed for its slice. Every end-to-end metric is the
// median over the run's kept slices of that slice's own value: its
// operations per second, its read latency p50 and p95, its peak RSS and
// its set-up time. A process's speed varies with its start, and a median
// over slices follows no single slow process, where latencies pooled over
// the run would take in every slow stretch.
//
// The benchmark runs on virtual machines whose hypervisor takes CPU time
// from them ("steal" in /proc/stat), in stretches of 20 to 100 seconds.
// On a 2-vCPU guest, bulk2d's median round trip went from 25 ms at 1-3%
// steal to 34 ms at 14% and 48 ms at 24%, and its p95 rose more. So the
// harness reads the machine's steal around each slice and keeps the third
// of the slices with the least steal: a steal stretch that covers up to
// two thirds of a run then leaves its metrics alone. The answers of the
// dropped slices are checked all the same.
func runE2E(w *workload, bin string, seconds float64, scrape bool) (runStats, error) {
	var st runStats
	n := max(4, int(math.Round(seconds/w.sliceSecs)))
	dur := time.Duration(seconds / float64(n) * float64(time.Second))
	next := 0
	slices := make([]slice, 0, n)
	for range n {
		sl, err := st.instance(w, bin, dur, scrape, &next)
		if err != nil {
			return st, err
		}
		slices = append(slices, sl)
	}
	sort.SliceStable(slices, func(a, b int) bool { return slices[a].steal < slices[b].steal })
	st.kept = slices[:(n+2)/3]
	st.dropped = n - len(st.kept)
	for _, sl := range st.kept {
		st.writes = append(st.writes, sl.writes...)
		st.counters.add(sl.counters)
		st.pointsSent += sl.pointsSent
	}
	return st, nil
}

// instance runs one server process through set-up, warm-up and a timed
// slice of length dur, and checks every answer it gave.
//
// Inline workloads carry the tape position on from the previous instance
// through next, so the run as a whole cycles through the input pool; the
// stream tape starts over with each fresh server, whose dataset is new.
func (st *runStats) instance(w *workload, bin string, dur time.Duration, scrape bool, next *int) (slice, error) {
	var sl slice
	steal0, total0, err := cpuJiffies()
	if err != nil {
		return sl, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	s, setup, setupRecs, err := startServer(bin, w, c)
	if err != nil {
		return sl, err
	}
	defer s.stop()
	sl.setup = setup

	recs := make([]record, 0, 1024)
	j := 0
	if w.base == nil {
		j = *next
	}
	for end := j + w.warmup; j < end; j++ {
		recs = append(recs, do(c, s.base, w.tape(j)))
	}
	var before map[string]float64
	if scrape {
		if before, err = scrapeMetrics(c, s.base); err != nil {
			return sl, err
		}
	}
	t0 := time.Now()
	for time.Since(t0) < dur {
		r := do(c, s.base, w.tape(j))
		r.timed = true
		recs = append(recs, r)
		j++
	}
	sl.secs = time.Since(t0).Seconds()
	*next = j
	if sl.rssMB, err = s.peakRSSMB(); err != nil {
		return sl, err
	}
	steal1, total1, err := cpuJiffies()
	if err != nil {
		return sl, err
	}
	if total1 > total0 {
		sl.steal = (steal1 - steal0) / (total1 - total0)
	}
	if scrape {
		after, err := scrapeMetrics(c, s.base)
		if err != nil {
			return sl, err
		}
		sl.counters = diffCounters(before, after)
	}
	if w.final != nil {
		recs = append(recs, do(c, s.base, *w.final))
	}
	for _, r := range recs {
		switch {
		case !r.timed:
		case r.op.kind != opRead:
			sl.writes = append(sl.writes, r.dur)
		default:
			sl.reads = append(sl.reads, r.dur)
			if w.base == nil {
				sl.pointsSent += w.inputLen(r.op.input)
			}
		}
	}
	st.verify(w, setupRecs, recs)
	return sl, nil
}

// cpuJiffies reads the steal and total CPU time of the whole machine, in
// jiffies, from the first line of /proc/stat.
func cpuJiffies() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total, nil
}

// verify runs the oracle over the set-up answers and every recorded
// answer in order; each mismatch counts as a failed operation.
func (st *runStats) verify(w *workload, setupRecs, recs []record) {
	if st.oracle == nil {
		st.oracle = newOracle(w)
	}
	o := st.oracle
	o.restart()
	st.attempted += len(recs)
	if err := o.checkSetup(setupRecs); err != nil {
		st.fail(err.Error())
		st.attempted++
		return
	}
	for _, r := range recs {
		if err := o.check(r); err != nil {
			st.fail(fmt.Sprintf("%s %s: %v", r.op.method, r.op.path, err))
		}
	}
}

func (w *workload) inputLen(i int) int {
	if w.dim == 3 {
		return len(w.pts3[i])
	}
	return len(w.pts2[i])
}

// serverGoVersion names the Go release a binary was built with.
func serverGoVersion(bin string) string {
	bi, err := buildinfo.ReadFile(bin)
	if err != nil {
		return "unknown go version"
	}
	return bi.GoVersion
}
