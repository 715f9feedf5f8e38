package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"inplacehull/internal/geom"
	"inplacehull/internal/hull2d"
	"inplacehull/internal/hull3d"
	"inplacehull/internal/rng"
	gen "inplacehull/internal/workload"
)

type opKind int

const (
	opRead opKind = iota
	opRegister
	opAppend
	opDelete
)

// op is one pre-encoded HTTP request of a workload.
type op struct {
	kind   opKind
	input  int // inline: index into the input pool; writes: batch index
	method string
	path   string
	body   []byte
}

// record is one answered (or refused) operation, kept for the oracle,
// which runs after the timed phase.
type record struct {
	op     op
	status int
	body   []byte
	err    error
	dur    float64 // milliseconds
	timed  bool
}

// workload is one traffic mix: the requests answered inside setup_s, an
// endless tape of pre-encoded operations, and the oracle for the answers.
// The server receives only the generated inputs.
type workload struct {
	name   string
	dim    int
	warmup int // tape operations before timing starts
	// sliceSecs is the timed length of one server process: at least
	// about 24 reads, so that a slice's own p95 has a read beyond it.
	sliceSecs float64
	replay    int // tape operations each path of the traced replay records
	setup     []op
	tape      func(j int) op
	final     *op // stream-rw: the untimed read whose chain must equal a from-scratch hull of the final live multiset

	// Inline workloads: the input pool the tape cycles through.
	pts2  [][]geom.Point
	pts3  [][]geom.Point3
	seeds []uint64 // per-input query seed (hull3d)

	// stream-rw: the registered base set and the write batches.
	base    []geom.Point
	batches [][]geom.Point
}

const streamName = "bench-stream"

// Workload sizes. Each why is recorded in perfbench/README.md.
const (
	bulkN, bulkPool     = 16384, 24
	smallN, smallPool   = 256, 512
	h3dN, h3dPool       = 4096, 64
	streamN, streamPool = 65536, 64
	batchN              = 16
	readsPerWrite       = 4
)

// mix derives an independent seed for input i of a workload from the
// benchmark seed (splitmix64 finalizer over the combined words).
func mix(seed uint64, tag string, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	for _, c := range tag {
		z = (z ^ uint64(c)) * 0x100000001B3
	}
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

type hullBody struct {
	Points  [][]float64 `json:"points,omitempty"`
	Dataset string      `json:"dataset,omitempty"`
	Seed    uint64      `json:"seed,omitempty"`
	NoCache bool        `json:"no_cache,omitempty"`
}

func coords2(pts []geom.Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = []float64{p.X, p.Y}
	}
	return out
}

func coords3(pts []geom.Point3) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = []float64{p.X, p.Y, p.Z}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only finite float slices and strings are encoded
	}
	return b
}

func newWorkload(name string, seed uint64) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "bulk2d":
		w.dim, w.warmup, w.replay, w.sliceSecs = 2, 4, 48, 1
		w.inline2(seed, bulkN, bulkPool)
	case "small2d":
		w.dim, w.warmup, w.replay, w.sliceSecs = 2, 100, 400, 1
		w.inline2(seed, smallN, smallPool)
	case "hull3d":
		w.dim, w.warmup, w.replay, w.sliceSecs = 3, 3, 32, 1.5
		w.inline3(seed)
	case "stream-rw":
		w.dim, w.warmup, w.replay, w.sliceSecs = 2, 10, 100, 1
		w.streamRW(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want bulk2d, small2d, hull3d or stream-rw)", name)
	}
	return w, nil
}

// inline2 builds a pool of distinct uniform-disk inputs sent inline with
// no_cache, so every request runs the full miss path and server memory
// does not grow with run length.
func (w *workload) inline2(seed uint64, n, pool int) {
	bodies := make([][]byte, pool)
	for i := range bodies {
		pts := gen.Disk(mix(seed, w.name, i), n)
		w.pts2 = append(w.pts2, pts)
		bodies[i] = mustJSON(hullBody{Points: coords2(pts), NoCache: true})
	}
	w.tape = func(j int) op {
		i := j % pool
		return op{kind: opRead, input: i, method: "POST", path: "/v1/hull2d", body: bodies[i]}
	}
}

// inline3 builds uniform-ball inputs with per-request seeds from a fixed
// sequence, because the 3-d build time depends strongly on the seed.
func (w *workload) inline3(seed uint64) {
	bodies := make([][]byte, h3dPool)
	seeds := rng.New(mix(seed, "hull3d-seeds", 0))
	for i := range bodies {
		pts := gen.Ball(mix(seed, w.name, i), h3dN)
		s := seeds.Uint64()
		w.pts3 = append(w.pts3, pts)
		w.seeds = append(w.seeds, s)
		bodies[i] = mustJSON(hullBody{Points: coords3(pts), Seed: s, NoCache: true})
	}
	w.tape = func(j int) op {
		i := j % h3dPool
		return op{kind: opRead, input: i, method: "POST", path: "/v1/hull3d", body: bodies[i]}
	}
}

// streamRW registers a 65 536-point disk as a stream dataset and runs a
// tape of readsPerWrite dataset reads per write. Writes alternate between
// appending batch k+1 and deleting batch k, so the live set is the base
// plus one or two batches. A quarter of each batch lies just outside the
// disk's upper half, so appends splice the chain and deletes remove hull
// vertices and run strip repairs.
func (w *workload) streamRW(seed uint64) {
	w.base = gen.Disk(mix(seed, w.name, -1), streamN)
	r := rng.New(mix(seed, w.name, -2))
	bodies := make([][]byte, streamPool) // a batch's append and delete bodies are the same
	for b := 0; b < streamPool; b++ {
		batch := make([]geom.Point, batchN)
		for i := range batch {
			rad, th := 0.9*math.Sqrt(r.Float64()), 2*math.Pi*r.Float64()
			if i%4 == 0 {
				rad, th = 1+0.003*r.Float64(), math.Pi*(0.1+0.8*r.Float64())
			}
			batch[i] = geom.Point{X: rad * math.Cos(th), Y: rad * math.Sin(th)}
		}
		w.batches = append(w.batches, batch)
		bodies[b] = mustJSON(hullBody{Points: coords2(batch)})
	}
	path := "/v1/datasets/" + streamName
	read := op{kind: opRead, method: "POST", path: "/v1/hull2d", body: mustJSON(hullBody{Dataset: streamName})}
	w.final = &read
	w.setup = []op{
		{kind: opRegister, method: "PUT", path: path, body: mustJSON(hullBody{Points: coords2(w.base)})},
		{kind: opAppend, input: 0, method: "POST", path: path + "/append", body: bodies[0]},
	}
	w.tape = func(j int) op {
		if j%(readsPerWrite+1) != readsPerWrite {
			return read
		}
		wr := j / (readsPerWrite + 1)
		if wr%2 == 0 {
			b := (wr/2 + 1) % streamPool
			return op{kind: opAppend, input: b, method: "POST", path: path + "/append", body: bodies[b]}
		}
		b := ((wr - 1) / 2) % streamPool
		return op{kind: opDelete, input: b, method: "POST", path: path + "/delete", body: bodies[b]}
	}
}

// oracle checks answers against references the server never computes:
// hull2d.UpperHull for 2-d chains, and for 3-d answers a facet-count
// bracket from a gift-wrapped hull of the full input (see facetRange).
type oracle struct {
	w      *workload
	chains map[string][]geom.Point // reference chain per input or live state
	facets map[int][2]int          // hull_size bracket per 3-d input
	// stream-rw state: live batch multiplicities and the last version.
	live    map[int]int
	version uint64
}

func newOracle(w *workload) *oracle {
	return &oracle{w: w, chains: map[string][]geom.Point{}, facets: map[int][2]int{}, live: map[int]int{}}
}

// restart forgets the stream state for a fresh server; the reference
// caches stay.
func (o *oracle) restart() {
	o.live, o.version = map[int]int{}, 0
}

type hullAnswer struct {
	N        int         `json:"n"`
	HullSize int         `json:"hull_size"`
	Chain    [][]float64 `json:"chain"`
}

type deltaAnswer struct {
	Version uint64 `json:"version"`
}

// checkSetup verifies the set-up answers and takes the stream state
// they leave: the registration's version and the first live batch.
func (o *oracle) checkSetup(recs []record) error {
	for _, r := range recs {
		if r.err != nil {
			return fmt.Errorf("setup %s %s: %v", r.op.method, r.op.path, r.err)
		}
		if r.status/100 != 2 {
			return fmt.Errorf("setup %s %s: HTTP %d: %s", r.op.method, r.op.path, r.status, r.body)
		}
		var d deltaAnswer
		if err := json.Unmarshal(r.body, &d); err != nil {
			return fmt.Errorf("setup %s %s: %v", r.op.method, r.op.path, err)
		}
		if o.version != 0 && d.Version != o.version+1 {
			return fmt.Errorf("setup %s: version %d after %d", r.op.path, d.Version, o.version)
		}
		o.version = d.Version
		if r.op.kind == opAppend {
			o.live[r.op.input]++
		}
	}
	return nil
}

// check verifies one answer, in tape order; a nil error means correct.
func (o *oracle) check(r record) error {
	if r.err != nil {
		return r.err
	}
	if r.status/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", r.status, strings.TrimSpace(string(r.body)))
	}
	if r.op.kind != opRead {
		var d deltaAnswer
		if err := json.Unmarshal(r.body, &d); err != nil {
			return err
		}
		if d.Version != o.version+1 {
			return fmt.Errorf("write moved version %d to %d, want +1", o.version, d.Version)
		}
		o.version = d.Version
		if r.op.kind == opAppend {
			o.live[r.op.input]++
		} else {
			o.live[r.op.input]--
		}
		return nil
	}
	var a hullAnswer
	if err := json.Unmarshal(r.body, &a); err != nil {
		return err
	}
	if o.w.dim == 3 {
		want, ok := o.facets[r.op.input]
		if !ok {
			lo, hi, err := facetRange(o.w.pts3[r.op.input])
			if err != nil {
				return fmt.Errorf("reference hull: %v", err)
			}
			want = [2]int{lo, hi}
			o.facets[r.op.input] = want
		}
		if a.N != h3dN || a.HullSize < want[0] || a.HullSize > want[1] {
			return fmt.Errorf("input %d: n=%d hull_size=%d, want n=%d and hull_size in [%d, %d]",
				r.op.input, a.N, a.HullSize, h3dN, want[0], want[1])
		}
		return nil
	}
	key, n, pts := o.reference2(r.op.input)
	want, ok := o.chains[key]
	if !ok {
		want = hull2d.UpperHull(pts())
		o.chains[key] = want
	}
	if a.N != n || a.HullSize != len(a.Chain) || len(a.Chain) != len(want) {
		return fmt.Errorf("%s: n=%d chain=%d, want n=%d chain=%d", key, a.N, len(a.Chain), n, len(want))
	}
	for i, c := range a.Chain {
		if len(c) != 2 || c[0] != want[i].X || c[1] != want[i].Y {
			return fmt.Errorf("%s: chain vertex %d is %v, want %v", key, i, c, want[i])
		}
	}
	return nil
}

// reference2 names the point set a 2-d read must be the hull of, with its
// size: the inline input, or the stream's live multiset (base plus live
// batches), built only when its reference chain is not cached yet.
func (o *oracle) reference2(input int) (string, int, func() []geom.Point) {
	if o.w.base == nil {
		pts := o.w.pts2[input]
		return fmt.Sprintf("input %d", input), len(pts), func() []geom.Point { return pts }
	}
	var ids []int
	for b, c := range o.live {
		for k := 0; k < c; k++ {
			ids = append(ids, b)
		}
	}
	sort.Ints(ids)
	n := len(o.w.base)
	for _, b := range ids {
		n += len(o.w.batches[b])
	}
	return fmt.Sprintf("live batches %v", ids), n, func() []geom.Point {
		pts := append(make([]geom.Point, 0, n), o.w.base...)
		for _, b := range ids {
			pts = append(pts, o.w.batches[b]...)
		}
		return pts
	}
}

// facetRange brackets a 3-d answer's hull_size. The answer counts the
// upper faces that some input point takes as its cap, and which face a
// hull vertex takes is a tie-break that varies with the build's insertion
// order, so the count is not a property of the point set alone: on one
// 4096-point input, native.Hull3D over the full input uses 272 faces and
// the culled Hull3DFrom path 276. What every correct answer shares: each
// upper face whose xy-projection strictly contains a point that is not an
// upper-face vertex is used (lo), and at most every upper face plus the
// degenerate top cap for shadow-boundary points is used (hi). The
// reference hull comes from gift wrapping, which the server never runs.
func facetRange(pts []geom.Point3) (lo, hi int, err error) {
	h, err := hull3d.GiftWrap(pts)
	if err != nil {
		return 0, 0, err
	}
	upper := h.UpperFaces()
	vertex := map[int]bool{}
	for _, f := range upper {
		vertex[f.A], vertex[f.B], vertex[f.C] = true, true, true
	}
	xy := func(i int) geom.Point { return geom.Point{X: h.Pts[i].X, Y: h.Pts[i].Y} }
	forced := map[int]bool{}
	for i, p := range pts {
		if vertex[i] {
			continue
		}
		q := geom.Point{X: p.X, Y: p.Y}
		for k, f := range upper {
			a, b, c := xy(f.A), xy(f.B), xy(f.C)
			if geom.Orientation(a, b, q) > 0 && geom.Orientation(b, c, q) > 0 && geom.Orientation(c, a, q) > 0 {
				forced[k] = true
				break
			}
		}
	}
	return len(forced), len(upper) + 1, nil
}
