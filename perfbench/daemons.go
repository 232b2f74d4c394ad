package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/storage"
)

// node is one arvid-equivalent daemon on loopback: server.New over its own
// result cache and trace store, as cmd/arvid wires it.
type node struct {
	name   string
	url    string
	eng    *sim.Engine
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when Serve returns
}

// nodeOpts configures startNode.
type nodeOpts struct {
	coord      *dist.Coordinator // coordinator role when non-nil
	peers      []string          // cache peers
	push       bool              // replicate fresh entries to the peers
	peerClient *http.Client
}

func startNode(name string, ln net.Listener, dir string, tr *tracer, o nodeOpts) (*node, error) {
	fsys := tracedFS(tr, name)
	cache, err := sim.OpenCacheFS(filepath.Join(dir, "cache"), fsys, nil)
	if err != nil {
		return nil, err
	}
	if len(o.peers) > 0 {
		cache.SetPeers(storage.NewPeerKV(o.peers, o.peerClient), o.push)
	}
	traces, err := sim.OpenTraceStoreFS(filepath.Join(dir, "traces"), 0, fsys, nil)
	if err != nil {
		return nil, err
	}
	eng := &sim.Engine{Workers: runtime.NumCPU(), Cache: cache, Traces: traces}
	if o.coord != nil {
		o.coord.Local = eng
	}
	srv := server.New(server.Config{Engine: eng, Coordinator: o.coord})
	n := &node{
		name:   name,
		url:    "http://" + ln.Addr().String(),
		eng:    eng,
		srv:    srv,
		hs:     &http.Server{Handler: handler(tr, name, srv), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan struct{}),
	}
	go func() {
		defer close(n.served)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return n, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.hs.Shutdown(ctx) // a timeout leaves Close below to cut the connections
	_ = n.hs.Close()
	<-n.served
}

// httpSystem is a set of daemons driven over loopback HTTP by the load
// client; serve-warm has one daemon, cluster-sweep a coordinator and two
// workers.
type httpSystem struct {
	entry      *node   // the daemon the load client talks to
	nodes      []*node // every daemon, entry first
	coord      *dist.Coordinator
	client     *http.Client // load client: at most cfg.clients connections
	transports []*http.Transport
	b          budget
	specs      []sim.Spec
}

func newHTTPSystem(cfg runConfig, tr *tracer) *httpSystem {
	lt := &http.Transport{MaxIdleConnsPerHost: cfg.clients, MaxConnsPerHost: cfg.clients}
	return &httpSystem{
		client:     &http.Client{Timeout: 120 * time.Second, Transport: transport(tr, layerHTTP, "client", lt)},
		transports: []*http.Transport{lt},
		b:          cfg.budget,
		specs:      cfg.budget.specs(),
	}
}

func (h *httpSystem) close() {
	for _, t := range h.transports {
		t.CloseIdleConnections()
	}
	for _, n := range h.nodes {
		n.close()
	}
	for _, t := range h.transports {
		t.CloseIdleConnections()
	}
}

// listeners binds n loopback ports.
func listeners(n int) ([]net.Listener, error) {
	var lns []net.Listener
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

// ready waits until every daemon answers /healthz.
func (h *httpSystem) ready(ctx context.Context) error {
	for _, n := range h.nodes {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := h.client.Do(req)
		if err != nil {
			return fmt.Errorf("%s /healthz: %w", n.name, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s /healthz: status %d", n.name, resp.StatusCode)
		}
	}
	return nil
}

func buildServe(cfg runConfig, dir string, tr *tracer) (system, error) {
	return newHTTPSystem(cfg, tr).start(dir, tr, []string{"daemon"}, func([]string) []nodeOpts {
		return []nodeOpts{{}}
	})
}

// buildCluster starts two workers whose caches push fresh entries to each
// other, and a coordinator over them whose own cache reads through to the
// workers (it computes single cells locally, as cmd/arvid's coordinator
// role does).
func buildCluster(cfg runConfig, dir string, tr *tracer) (system, error) {
	h := newHTTPSystem(cfg, tr)
	peerT, coordT := &http.Transport{}, &http.Transport{}
	h.transports = append(h.transports, peerT, coordT)
	peers := &http.Client{Timeout: 30 * time.Second, Transport: peerT}
	h.coord = &dist.Coordinator{Client: &http.Client{Timeout: 120 * time.Second, Transport: transport(tr, layerDist, "coord", coordT)}}
	return h.start(dir, tr, []string{"coord", "w0", "w1"}, func(urls []string) []nodeOpts {
		h.coord.SetWorkers(urls[1:])
		return []nodeOpts{
			{coord: h.coord, peers: urls[1:], peerClient: peers},
			{peers: urls[2:3], push: true, peerClient: peers},
			{peers: urls[1:2], push: true, peerClient: peers},
		}
	})
}

// start binds a loopback port per name, starts the daemons opts configures
// (it sees every daemon's URL first, for peer lists), and returns once all
// of them answer /healthz. The first daemon is the entry.
func (h *httpSystem) start(dir string, tr *tracer, names []string, opts func(urls []string) []nodeOpts) (system, error) {
	lns, err := listeners(len(names))
	if err != nil {
		return nil, err
	}
	urls := make([]string, len(lns))
	for i, ln := range lns {
		urls[i] = "http://" + ln.Addr().String()
	}
	for i, o := range opts(urls) {
		n, err := startNode(names[i], lns[i], filepath.Join(dir, names[i]), tr, o)
		if err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			h.close()
			return nil, err
		}
		h.nodes = append(h.nodes, n)
	}
	h.entry = h.nodes[0]
	if err := h.ready(context.Background()); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// request is an operation's endpoint and body: the default grids, at the
// workload's budget.
func (h *httpSystem) request(o op) (path, body string) {
	switch o.kind {
	case opRun:
		sp := h.specs[o.cell]
		return "/v1/run", fmt.Sprintf(`{"bench":%q,"depth":%d,"mode":%q,"max_insts":%d}`, sp.Bench, sp.Depth, sp.Mode.String(), sp.MaxInsts)
	case opMatrix:
		return "/v1/matrix", fmt.Sprintf(`{"max_insts":%d}`, h.b.insts)
	case opSMT:
		return "/v1/study/smt", fmt.Sprintf(`{"max_cycles":%d}`, h.b.cycles)
	default:
		return "/v1/study/vpred", fmt.Sprintf(`{"max_insts":%d}`, h.b.insts)
	}
}

func (h *httpSystem) post(ctx context.Context, base string, o op) ([]byte, error) {
	path, body := h.request(o)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: read body: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, b)
	}
	return b, nil
}

func (h *httpSystem) do(ctx context.Context, o op) ([]byte, error) {
	return h.post(ctx, h.entry.url, o)
}

// cold fills the daemons through the entry daemon: the Fig-6 matrix, the
// two study grids, then every matrix cell as a single-cell request in a
// seeded order. The grids must match the expected single-daemon digests,
// and each single cell must carry the same statistics as its matrix cell.
func (h *httpSystem) cold(ctx context.Context, seed int64) (*coldOutput, error) {
	out := &coldOutput{}
	check := func(what string, b []byte, want string) {
		out.attempted++
		if !matches(what, b, want) {
			out.failed++
		}
	}
	var err error
	if out.refs.matrix, err = h.do(ctx, op{kind: opMatrix}); err != nil {
		return nil, err
	}
	check("matrix", out.refs.matrix, want.Matrix)
	if out.mx, out.cells, err = decodeMatrix(out.refs.matrix); err != nil {
		return nil, err
	}
	out.smtDur = timed(func() { out.refs.smt, err = h.do(ctx, op{kind: opSMT}) })
	if err != nil {
		return nil, err
	}
	check("smt study", out.refs.smt, want.SMT)
	out.vpredDur = timed(func() { out.refs.vpred, err = h.do(ctx, op{kind: opVPred}) })
	if err != nil {
		return nil, err
	}
	check("vpred study", out.refs.vpred, want.VPred)

	out.refs.run = make([][]byte, len(h.specs))
	for _, i := range rand.New(rand.NewPCG(uint64(seed), 0)).Perm(len(h.specs)) {
		b, err := h.do(ctx, op{kind: opRun, cell: i})
		if err != nil {
			return nil, err
		}
		out.refs.run[i] = b
		out.attempted++
		var r sim.Result
		st, ok := out.mx.LookupSpec(h.specs[i])
		if json.Unmarshal(b, &r) != nil || r.Spec != h.specs[i] || !ok || !reflect.DeepEqual(r.Stats, st) {
			fmt.Fprintf(os.Stderr, "perfbench: /v1/run %s disagrees with its matrix cell\n", h.specs[i])
			out.failed++
		}
	}
	return out, nil
}

// decodeMatrix rebuilds a sim.Matrix from a /v1/matrix response.
func decodeMatrix(b []byte) (*sim.Matrix, []cellStats, error) {
	var resp struct {
		MaxInsts int64        `json:"max_insts"`
		Cells    []sim.Record `json:"cells"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&resp); err != nil {
		return nil, nil, fmt.Errorf("decode matrix response: %w", err)
	}
	mx := &sim.Matrix{MaxInsts: resp.MaxInsts}
	var cells []cellStats
	for _, c := range resp.Cells {
		md, err := sim.ParseMode(c.Mode)
		if err != nil {
			return nil, nil, err
		}
		sp := sim.Spec{Bench: c.Bench, Depth: c.Depth, Mode: md, MaxInsts: resp.MaxInsts}
		mx.Add(sim.Result{Spec: sp, Stats: c.Stats})
		cells = append(cells, cellStats{sp, c.Stats})
	}
	if len(cells) != numCells {
		return nil, nil, errors.New("matrix response is missing cells")
	}
	return mx, cells, nil
}

func (h *httpSystem) counters() map[string]float64 {
	c := map[string]float64{}
	for _, n := range h.nodes {
		c["sim.cache_hits"] += float64(n.eng.CacheHits())
		c["server.computes"] += float64(n.srv.Computes())
		c["server.coalesced"] += float64(n.srv.Coalesced())
		c["sim.peer_pushes"] += float64(n.eng.Cache.PeerPushes())
		c["sim.peer_hits"] += float64(n.eng.Cache.PeerHits())
		c["vm.runs"] += float64(n.eng.Traces.Recorded())
	}
	if h.coord != nil {
		c["dist.remote_jobs"] = float64(h.coord.RemoteJobs())
		c["dist.retried_jobs"] = float64(h.coord.RetriedJobs())
		c["dist.local_jobs"] = float64(h.coord.LocalJobs())
	}
	return c
}

// probes names the store a single daemon reads from: the daemon itself,
// or in a cluster the first worker (whose cache the push replication has
// filled with every entry).
func (h *httpSystem) probes() (*sim.Cache, *sim.TraceStore) {
	n := h.entry
	if h.coord != nil {
		n = h.nodes[1]
	}
	return n.eng.Cache, n.eng.Traces
}

// distOverhead measures, in alternating pairs, the warm matrix through the
// coordinator and the same matrix served by one worker directly; both
// must be byte-identical to the single-daemon matrix. It returns the
// median per-cell difference and the operations it checked.
func (h *httpSystem) distOverhead(ctx context.Context, pairs int, ref []byte) (time.Duration, int64, int64, error) {
	if h.coord == nil {
		return 0, 0, 0, nil // a single daemon has no fan-out to measure
	}
	var via, direct []time.Duration
	var attempted, failed int64
	for i := 0; i < pairs; i++ {
		for _, base := range []string{h.entry.url, h.nodes[1].url} {
			t0 := time.Now()
			b, err := h.post(ctx, base, op{kind: opMatrix})
			d := time.Since(t0)
			if err != nil {
				return 0, attempted, failed, err
			}
			attempted++
			if !bytes.Equal(b, ref) {
				failed++
			}
			if base == h.entry.url {
				via = append(via, d)
			} else {
				direct = append(direct, d)
			}
		}
	}
	per := (medianDur(via) - medianDur(direct)) / time.Duration(numCells)
	return per, attempted, failed, nil
}
