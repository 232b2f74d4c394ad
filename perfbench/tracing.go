package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// Span layers, outermost first.
const (
	layerHTTP    = "http"    // load client round trip
	layerServer  = "server"  // a daemon's handler
	layerDist    = "dist"    // coordinator→worker round trip
	layerSim     = "sim"     // in-process call into sim.Engine
	layerStorage = "storage" // one storage.FS operation
)

// spanHeader carries the caller's span ID across an HTTP hop, so a
// daemon's handler span becomes the child of the round trip that sent it.
const spanHeader = "X-Perfbench-Span"

// span is one timed interval at a layer boundary. Offsets are from the
// tracer's start.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Node   string        `json:"node"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, which is how untraced runs stay untraced.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func (t *tracer) id() uint64 { return t.next.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// around runs fn, records it as a span when t is non-nil, and returns
// fn's duration either way.
func (t *tracer) around(layer, name, node string, fn func()) time.Duration {
	if t == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	s := span{ID: t.id(), Layer: layer, Name: name, Node: node, Start: t.now()}
	fn()
	s.End = t.now()
	t.add(s)
	return s.dur()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// spanKey carries the enclosing handler's span ID in a request context,
// from which the coordinator derives its outgoing requests' contexts.
type spanKey struct{}

// traceFS wraps a storage.FS so every operation is a storage span on node.
type traceFS struct {
	t    *tracer
	node string
	fs   storage.FS
}

// tracedFS returns the real filesystem, wrapped when t is non-nil.
func tracedFS(t *tracer, node string) storage.FS {
	if t == nil {
		return storage.OS{}
	}
	return &traceFS{t: t, node: node, fs: storage.OS{}}
}

func (f *traceFS) op(name string, fn func()) { f.t.around(layerStorage, name, f.node, fn) }

func (f *traceFS) ReadFile(name string) (b []byte, err error) {
	f.op("read", func() { b, err = f.fs.ReadFile(name) })
	return b, err
}

func (f *traceFS) WriteFile(name string, data []byte, perm os.FileMode) (err error) {
	f.op("write", func() { err = f.fs.WriteFile(name, data, perm) })
	return err
}

func (f *traceFS) Rename(oldpath, newpath string) (err error) {
	f.op("rename", func() { err = f.fs.Rename(oldpath, newpath) })
	return err
}

func (f *traceFS) MkdirAll(path string, perm os.FileMode) (err error) {
	f.op("mkdir", func() { err = f.fs.MkdirAll(path, perm) })
	return err
}

func (f *traceFS) Remove(name string) (err error) {
	f.op("remove", func() { err = f.fs.Remove(name) })
	return err
}

// traceHandler wraps a daemon's http.Handler: each request is a server
// span on node, parented to the span named in spanHeader.
type traceHandler struct {
	t    *tracer
	node string
	h    http.Handler
}

func (th *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	s := span{ID: th.t.id(), Parent: parent, Layer: layerServer, Name: endpoint(r.URL.Path), Node: th.node, Start: th.t.now()}
	th.h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, s.ID)))
	s.End = th.t.now()
	th.t.add(s)
}

// endpoint names a request path's endpoint.
func endpoint(path string) string {
	switch {
	case path == "/v1/run":
		return "run"
	case path == "/v1/matrix":
		return "matrix"
	case path == "/v1/study/smt":
		return "smt"
	case path == "/v1/study/vpred":
		return "vpred"
	case strings.HasPrefix(path, "/v1/cache/"):
		return "cache"
	default:
		return "other"
	}
}

// traceTransport wraps an http.RoundTripper: each round trip, up to the
// response body's close, is a span at layer on node. The parent comes from
// the request context (set by traceHandler), and the span's own ID travels
// in spanHeader to the receiving daemon.
type traceTransport struct {
	t     *tracer
	layer string
	node  string
	rt    http.RoundTripper
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	s := span{ID: tt.t.id(), Parent: parent, Layer: tt.layer, Name: endpoint(req.URL.Path), Node: tt.node, Start: tt.t.now()}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	resp, err := tt.rt.RoundTrip(req)
	if err != nil {
		s.End = tt.t.now()
		tt.t.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.add(b.s)
	})
	return err
}

// transport returns rt wrapped for tracing when t is non-nil.
func transport(t *tracer, layer, node string, rt http.RoundTripper) http.RoundTripper {
	if t == nil {
		return rt
	}
	return &traceTransport{t: t, layer: layer, node: node, rt: rt}
}

// handler returns h wrapped for tracing when t is non-nil.
func handler(t *tracer, node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return &traceHandler{t: t, node: node, h: h}
}

// analysis is the span set of a traced phase with each span's self time:
// its duration minus the part of it its children cover. Children are the
// spans that name it as parent, plus the storage operations on its node
// that it encloses (a storage.FS call carries no context, so it goes to
// the latest-starting server or sim span on its node that contains it).
type analysis struct {
	spans []span
	self  []time.Duration
}

func analyze(all []span, from, to time.Duration) *analysis {
	var spans []span
	for _, s := range all {
		if s.Start >= from && s.End <= to {
			spans = append(spans, s)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	idx := make(map[uint64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	children := make([][]int, len(spans))
	// Candidate storage parents per node, in start order.
	owners := make(map[string][]int)
	for i, s := range spans {
		if p, ok := idx[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], i)
		}
		if s.Layer == layerServer || s.Layer == layerSim {
			owners[s.Node] = append(owners[s.Node], i)
		}
	}
	for i, s := range spans {
		if s.Layer != layerStorage {
			continue
		}
		cand := owners[s.Node]
		k := sort.Search(len(cand), func(k int) bool { return spans[cand[k]].Start > s.Start }) - 1
		// Only a few spans of one node overlap at a time, so a short walk
		// back finds the owner when there is one.
		for steps := 0; k >= 0 && steps < 64; k, steps = k-1, steps+1 {
			if o := spans[cand[k]]; o.End >= s.End {
				children[cand[k]] = append(children[cand[k]], i)
				break
			}
		}
	}
	a := &analysis{spans: spans, self: make([]time.Duration, len(spans))}
	for i, s := range spans {
		a.self[i] = s.dur() - covered(s, spans, children[i])
	}
	return a
}

// covered is how much of s the union of its children's intervals covers.
func covered(s span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]time.Duration{max(spans[k].Start, s.Start), min(spans[k].End, s.End)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	cur := iv[0]
	for _, v := range iv[1:] {
		if v[0] > cur[1] {
			total += max(cur[1]-cur[0], 0)
			cur = v
		} else if v[1] > cur[1] {
			cur[1] = v[1]
		}
	}
	return total + max(cur[1]-cur[0], 0)
}

// durs returns the durations (self times when self is set) of the spans
// matching keep.
func (a *analysis) durs(self bool, keep func(span) bool) []time.Duration {
	var out []time.Duration
	for i, s := range a.spans {
		if keep(s) {
			if self {
				out = append(out, a.self[i])
			} else {
				out = append(out, s.dur())
			}
		}
	}
	return out
}

// selfTotal sums the self time of every span at layer.
func (a *analysis) selfTotal(layer string) time.Duration {
	var t time.Duration
	for i, s := range a.spans {
		if s.Layer == layer {
			t += a.self[i]
		}
	}
	return t
}

// clientOverhead is, per load-client round trip, its duration minus the
// entry daemon's handler span it caused: connection, loopback and client
// stack time.
func (a *analysis) clientOverhead() []time.Duration {
	byParent := make(map[uint64]span)
	for _, s := range a.spans {
		if s.Layer == layerServer && s.Parent != 0 {
			byParent[s.Parent] = s
		}
	}
	var out []time.Duration
	for _, s := range a.spans {
		if s.Layer != layerHTTP {
			continue
		}
		if h, ok := byParent[s.ID]; ok {
			out = append(out, s.dur()-h.dur())
		}
	}
	return out
}
