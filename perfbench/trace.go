package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"inplacehull/internal/cull"
	"inplacehull/internal/engine"
	"inplacehull/internal/geom"
	"inplacehull/internal/hullerr"
	"inplacehull/internal/hullhash"
	"inplacehull/internal/native"
	"inplacehull/internal/obs"
	"inplacehull/internal/resilient"
	"inplacehull/internal/serve"
	"inplacehull/internal/stream"
	"inplacehull/internal/unsorted"
	gen "inplacehull/internal/workload"
)

// counterDelta holds /metrics counter deltas over a timed phase.
type counterDelta map[string]float64

// scrapeMetrics reads the unlabelled counters of a /metrics page.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func diffCounters(before, after map[string]float64) counterDelta {
	d := counterDelta{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func (d *counterDelta) add(o counterDelta) {
	if *d == nil {
		*d = counterDelta{}
	}
	for k, v := range o {
		(*d)[k] += v
	}
}

func (d counterDelta) serve(name string) float64  { return d["inplacehull_serve_"+name] }
func (d counterDelta) stream(name string) float64 { return d["inplacehull_stream_"+name] }

// traceWarmup is how many tape operations each traced path runs before it
// records anything.
const traceWarmup = 8

// trace holds the traced replay's per-call samples, keyed by metric name.
type trace struct {
	samples map[string][]float64
	reads   int // read operations recorded per path
	run     runStats
}

func (t *trace) add(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

func (t *trace) p50(name string) float64 { return quantile(t.samples[name], 0.5) }

// share is the fraction of read operations that called the layer.
func (t *trace) share(name string) float64 {
	if t.reads == 0 {
		return 0
	}
	return float64(len(t.samples[name])) / float64(t.reads)
}

// newInProcess builds serve.NewServer as hullserve does with its default
// flags, the default -datasets preloads included.
func newInProcess() (*serve.Server, *stream.Store) {
	metrics := obs.NewMetrics()
	store := stream.NewStore(stream.Config{Metrics: metrics})
	pol, _ := cull.ParsePolicy("auto")
	const seed = 1
	srv := serve.NewServer(serve.Config{
		MaxQueue:    256,
		MaxBatch:    32,
		BatchWindow: 200 * time.Microsecond,
		CacheSize:   1024,
		Metrics:     metrics,
		Datasets: map[string]serve.Dataset{
			"disk-4096":   {Points2: gen.Disk(seed, 4096)},
			"circle-4096": {Points2: gen.Circle(seed, 4096)},
			"ball-4096":   {Points3: gen.Ball(seed, 4096)},
		},
		Backend: resilient.BackendNative,
		Cull:    pol,
		Streams: store,
	})
	return srv, store
}

// allocDelta measures one call's wall time and heap allocations. The
// memory statistics are read outside the timed interval.
func allocDelta(fn func()) (msec, allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	return ms(d), float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

func timed(fn func()) float64 {
	t0 := time.Now()
	fn()
	return ms(time.Since(t0))
}

// step replays one tape operation on one path; rec says whether to
// record its timings (false during warm-up).
type step func(o op, rec bool) error

// runTrace replays the first traceWarmup+w.replay operations of the
// workload's tape through four paths, each on its own fresh in-process
// server so every path sees the same sequence of states. The paths take
// turns operation by operation, so a drift in host speed moves all four
// alike and the subtractions in layers stay meaningful:
//
//	A: loopback HTTP round trips (client.rtt_ms), answers checked by the oracle
//	B: Server.Handler().ServeHTTP through httptest (serve.handler_ms)
//	C: Server.Query2D/Query3D (serve.query_ms)
//	D: each leaf layer's public function on the same inputs
func runTrace(w *workload) (*trace, error) {
	t := &trace{samples: map[string][]float64{}}
	for j := traceWarmup; j < traceWarmup+w.replay; j++ {
		if w.tape(j).kind == opRead {
			t.reads++
		}
	}
	a, setupRecs, recs, closeA, err := t.httpPath(w)
	if err != nil {
		return nil, err
	}
	defer closeA()
	b, closeB, err := t.handlerPath(w)
	if err != nil {
		return nil, err
	}
	defer closeB()
	c, closeC, err := t.queryPath(w)
	if err != nil {
		return nil, err
	}
	defer closeC()
	d, err := t.leafPath(w)
	if err != nil {
		return nil, err
	}
	for j := 0; j < traceWarmup+w.replay; j++ {
		o := w.tape(j)
		for _, s := range []step{a, b, c, d} {
			if err := s(o, j >= traceWarmup); err != nil {
				return nil, err
			}
		}
	}
	t.run.verify(w, setupRecs, *recs)
	return t, nil
}

// httpPath serves an in-process server on a loopback listener and times
// client round trips; the answers are kept for the oracle.
func (t *trace) httpPath(w *workload) (step, []record, *[]record, func(), error) {
	srv, _ := newInProcess()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	c := newClient()
	closeAll := func() {
		c.CloseIdleConnections()
		_ = hs.Close()
		<-served
		srv.Close()
	}
	base := "http://" + ln.Addr().String()
	var setupRecs, recs []record
	for _, o := range w.setup {
		setupRecs = append(setupRecs, do(c, base, o))
	}
	return func(o op, rec bool) error {
		r := do(c, base, o)
		if rec && o.kind == opRead {
			t.add("client.rtt_ms", r.dur)
		}
		recs = append(recs, r)
		return nil
	}, setupRecs, &recs, closeAll, nil
}

func serveHTTP(h http.Handler, o op) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body)))
	return rec
}

// setupInProcess answers the workload's set-up requests on h.
func setupInProcess(w *workload, h http.Handler) error {
	for _, o := range w.setup {
		if rec := serveHTTP(h, o); rec.Code/100 != 2 {
			return fmt.Errorf("traced setup %s %s: HTTP %d", o.method, o.path, rec.Code)
		}
	}
	return nil
}

// handlerPath calls Server.Handler().ServeHTTP through httptest.
func (t *trace) handlerPath(w *workload) (step, func(), error) {
	srv, _ := newInProcess()
	h := srv.Handler()
	if err := setupInProcess(w, h); err != nil {
		srv.Close()
		return nil, nil, err
	}
	return func(o op, rec bool) error {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
		d, allocs, bytes := allocDelta(func() { h.ServeHTTP(rr, req) })
		if rr.Code/100 != 2 {
			return fmt.Errorf("traced handler %s %s: HTTP %d", o.method, o.path, rr.Code)
		}
		if rec && o.kind == opRead {
			t.add("serve.handler_ms", d)
			t.add("serve.handler_allocs", allocs)
			t.add("serve.handler_bytes", bytes)
		}
		return nil
	}, srv.Close, nil
}

// queryPath calls Server.Query2D/Query3D; stream writes go straight to
// the dataset so the stream stays in step with the tape.
func (t *trace) queryPath(w *workload) (step, func(), error) {
	srv, store := newInProcess()
	if err := setupInProcess(w, srv.Handler()); err != nil {
		srv.Close()
		return nil, nil, err
	}
	ctx := context.Background()
	return func(o op, rec bool) error {
		if o.kind != opRead {
			return write(ctx, store, w, o)
		}
		q := serve.Query{Dataset: streamName}
		if w.base == nil {
			q = serve.Query{NoCache: true}
			if w.dim == 3 {
				q.Points3, q.Seed = w.pts3[o.input], w.seeds[o.input]
			} else {
				q.Points2 = w.pts2[o.input]
			}
		}
		var err error
		d, allocs, bytes := allocDelta(func() {
			if w.dim == 3 {
				_, err = srv.Query3D(ctx, q)
			} else {
				_, err = srv.Query2D(ctx, q)
			}
		})
		if err != nil {
			return fmt.Errorf("traced query: %w", err)
		}
		if rec {
			t.add("serve.query_ms", d)
			t.add("serve.query_allocs", allocs)
			t.add("serve.query_bytes", bytes)
		}
		return nil
	}, srv.Close, nil
}

// write applies one stream write straight to the dataset.
func write(ctx context.Context, store *stream.Store, w *workload, o op) error {
	d, ok := store.Get(streamName)
	if !ok {
		return fmt.Errorf("traced write: no dataset %q", streamName)
	}
	var err error
	if o.kind == opAppend {
		_, err = d.Append2(ctx, w.batches[o.input])
	} else {
		_, err = d.Delete2(ctx, w.batches[o.input])
	}
	return err
}

// leafPath calls each leaf layer the server's path runs, on the same
// inputs, with the server's default policies. Locate runs only where the
// server runs it: after a 2-d cull that discarded points, and on the first
// stream read after a write (later reads are cache hits).
func (t *trace) leafPath(w *workload) (step, error) {
	ctx := context.Background()
	pol, _ := cull.ParsePolicy("auto")
	store := stream.NewStore(stream.Config{})
	if w.base != nil {
		if _, _, err := store.Register2(streamName, w.base); err != nil {
			return nil, err
		}
	}
	for _, o := range w.setup {
		if o.kind == opAppend {
			if err := write(ctx, store, w, o); err != nil {
				return nil, err
			}
		}
	}
	located := uint64(0)
	return func(o op, rec bool) error {
		add := func(name string, v float64) {
			if rec {
				t.add(name, v)
			}
		}
		switch {
		case o.kind != opRead:
			var err error
			d := timed(func() { err = write(ctx, store, w, o) })
			if o.kind == opAppend {
				add("stream.append_ms", d)
			} else {
				add("stream.delete_ms", d)
			}
			return err
		case w.base != nil:
			ds, _ := store.Get(streamName)
			var snap stream.Snapshot2
			var err error
			d, _, bytes := allocDelta(func() { snap, err = ds.Snapshot2() })
			if err != nil {
				return err
			}
			add("stream.snapshot_ms", d)
			add("stream.snapshot_bytes", bytes)
			add("stream.hull_ms", timed(func() { _, _, _, err = ds.Hull2() }))
			if snap.Version != located {
				located = snap.Version
				edges := chainEdges(snap.Chain)
				add("native.locate_ms", timed(func() { native.Locate(snap.Points, edges) }))
			}
			return err
		case w.dim == 3:
			pts, seed := w.pts3[o.input], w.seeds[o.input]
			add("hullerr.validate_ms", timed(func() { _ = hullerr.CheckFinite3D("serve.Query3D", pts) }))
			add("hullhash.hash_ms", timed(func() {
				h := hullhash.New()
				h.Points3(pts)
				_ = h.Sum()
			}))
			var surv []geom.Point3
			add("cull.filter_ms", timed(func() { surv = cull.Points3(pol, seed, pts) }))
			var err error
			d, allocs, _ := allocDelta(func() {
				if len(surv) < len(pts) {
					_, _, err = engine.NativeHull3DFrom(ctx, seed, pts, surv, nil)
				} else {
					_, _, err = engine.Native(seed, nil).Hull3D(ctx, pts, unsorted.Options3D{}, resilient.Policy{})
				}
			})
			add("engine.build_ms", d)
			add("engine.build_allocs", allocs)
			return err
		default:
			pts := w.pts2[o.input]
			add("hullerr.validate_ms", timed(func() { _ = hullerr.CheckFinite2D("serve.Query2D", pts) }))
			add("hullhash.hash_ms", timed(func() {
				h := hullhash.New()
				h.Points2(pts)
				_ = h.Sum()
			}))
			var surv []geom.Point
			add("cull.filter_ms", timed(func() { surv = cull.Points2(pol, 0, pts) }))
			var out unsorted.Result2D
			var err error
			d, allocs, _ := allocDelta(func() {
				out, _, err = engine.Native(0, nil).Hull2D(ctx, surv, unsorted.Options{}, resilient.Policy{})
			})
			if err != nil {
				return err
			}
			add("engine.build_ms", d)
			add("engine.build_allocs", allocs)
			if len(surv) < len(pts) {
				add("native.locate_ms", timed(func() { native.Locate(pts, out.Edges) }))
			}
			return nil
		}
	}, nil
}

func chainEdges(chain []geom.Point) []geom.Edge {
	var edges []geom.Edge
	for i := 1; i < len(chain); i++ {
		edges = append(edges, geom.Edge{U: chain[i-1], W: chain[i]})
	}
	return edges
}

// leafLayers are the layers below serve.Query2D/Query3D on the request
// path; serve.admission_ms is what the query costs beyond them.
var leafLayers = []string{
	"hullerr.validate_ms", "hullhash.hash_ms", "cull.filter_ms",
	"engine.build_ms", "native.locate_ms", "stream.snapshot_ms",
}

// layers reduces the trace to the per-layer metrics. Leaf layers are the
// median per call (0 when the workload never calls the layer). Self times
// come by subtraction, so transport + wire + admission + the leaves, each
// weighted by the share of reads that call it, add up to client.rtt_ms.
func (t *trace) layers(e2e runStats) map[string]float64 {
	rtt, handler, query := t.p50("client.rtt_ms"), t.p50("serve.handler_ms"), t.p50("serve.query_ms")
	leaves := 0.0
	out := map[string]float64{
		"client.rtt_ms":    rtt,
		"transport_ms":     rtt - handler,
		"serve.handler_ms": handler,
		"serve.wire_ms":    handler - query,
		"serve.query_ms":   query,
	}
	for _, l := range leafLayers {
		out[l] = t.p50(l)
		leaves += out[l] * t.share(l)
	}
	out["serve.admission_ms"] = query - leaves
	for _, name := range []string{
		"stream.hull_ms", "stream.append_ms", "stream.delete_ms",
		"serve.handler_allocs", "serve.handler_bytes", "serve.query_allocs", "serve.query_bytes",
		"engine.build_allocs", "stream.snapshot_bytes",
	} {
		out[name] = t.p50(name)
	}

	c := e2e.counters
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	if c.serve("cull_queries_total") > 0 {
		out["cull.survivor_ratio"] = 1 - ratio(c.serve("cull_points_total"), float64(e2e.pointsSent))
	} else {
		out["cull.survivor_ratio"] = 0
	}
	hits := c.serve("cache_hits_total")
	writes := float64(len(e2e.writes))
	out["serve.batch_size"] = ratio(c.serve("batched_queries_total"), c.serve("batches_total"))
	out["serve.cache_hit_ratio"] = ratio(hits, hits+c.serve("cache_misses_total"))
	out["serve.shed"] = c.serve("shed_total") + c.serve("deadline_shed_total")
	out["stream.patched_ratio"] = ratio(c.serve("stream_patched_total"), c.serve("stream_queries_total"))
	out["stream.cache_evictions"] = ratio(c.serve("stream_evictions_total"), writes)
	out["stream.repairs"] = ratio(c.stream("repairs_total"), writes)
	out["stream.fallbacks"] = ratio(c.stream("fallbacks_total"), writes)
	out["trace.overhead_ratio"] = ratio(rtt, e2e.endToEnd()["latency_p50_ms"])
	return out
}
