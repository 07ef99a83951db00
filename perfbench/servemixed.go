package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flattree/internal/experiments"
	"flattree/internal/graph"
	"flattree/internal/metrics"
	"flattree/internal/parallel"
	"flattree/internal/serve"
	"flattree/internal/store"
)

const (
	// serveClients is the closed loop's client count: each client is a
	// sweep driver that waits for every cell before asking for the next.
	serveClients = 2
	// serveHotSeeds is how many seeds' worth of Figure 7 columns make up
	// the hot set filled during set-up.
	serveHotSeeds = 2
	// hitsPerMiss makes about 9 in 10 requests hit the hot set.
	hitsPerMiss = 9
)

// serveReq is one /v1/cell request: a Figure 7 column at a seed.
type serveReq struct {
	col  string
	seed uint64
	hot  bool
}

func (q serveReq) path(kmax int) string {
	return fmt.Sprintf("/v1/cell?exp=fig7&col=%s&kmin=4&kmax=%d&seed=%d&eps=%g",
		url.QueryEscape(q.col), kmax, q.seed, cellEpsilon)
}

// cellOp is the experiments.Cell call the server makes for the request.
func (q serveReq) cellOp(kmax int) cellOp {
	cfg := experiments.DefaultConfig()
	cfg.KMin, cfg.KMax, cfg.Seed, cfg.Epsilon, cfg.Parallelism = 4, kmax, q.seed, cellEpsilon, 1
	return cellOp{cfg, experiments.CellSpec{Experiment: "fig7", Column: q.col}}
}

// serveOps builds the hot set (every Figure 7 column at serveHotSeeds
// seeds) and the shuffled request list: units misses, each a column at a
// fresh seed (columns taken in turn, so every run has the same column
// mix), and hitsPerMiss hits per miss cycling over the hot set.
func (r *run) serveOps() (hot, ops []serveReq, err error) {
	cols, err := experiments.Columns("fig7")
	if err != nil {
		return nil, nil, err
	}
	seeds := parallel.NewSeedStream(r.seed)
	for h := 0; h < serveHotSeeds; h++ {
		for _, c := range cols {
			hot = append(hot, serveReq{c, seeds.Seed(uint64(h)), true})
		}
	}
	misses := r.units()
	for j := 0; j < misses; j++ {
		ops = append(ops, serveReq{cols[j%len(cols)], seeds.Seed(uint64(serveHotSeeds + j/len(cols))), false})
	}
	for j := 0; j < hitsPerMiss*misses; j++ {
		ops = append(ops, hot[j%len(hot)])
	}
	graph.NewRNG(r.seed).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return hot, ops, nil
}

// liveServer is an in-process serve.Server on a loopback listener.
type liveServer struct {
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

func startServer(dir string) (*liveServer, error) {
	srv, err := serve.New(serve.Config{
		StoreDir:       dir,
		Solvers:        serveClients,
		JobParallelism: 1,
		CodeVersion:    "perfbench",
		Defaults:       experiments.DefaultConfig(),
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ls := &liveServer{
		base: "http://" + l.Addr().String(),
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
		},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { ls.done <- srv.Run(ctx, l) }()
	return ls, nil
}

// stop drains the server and waits for Run to return.
func (ls *liveServer) stop() error {
	ls.client.CloseIdleConnections()
	ls.cancel()
	return <-ls.done
}

// reply is one response as the client saw it.
type reply struct {
	status       int
	cache, key   string
	approximate  string
	body         []byte
	ms           float64
	transportErr error
}

func (ls *liveServer) get(path string) reply {
	t0 := time.Now()
	resp, err := ls.client.Get(ls.base + path)
	if err != nil {
		return reply{transportErr: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{
		status:       resp.StatusCode,
		cache:        resp.Header.Get("X-Flatsim-Cache"),
		key:          resp.Header.Get("X-Flatsim-Key"),
		approximate:  resp.Header.Get("X-Flatsim-Approximate"),
		body:         body,
		ms:           float64(time.Since(t0).Nanoseconds()) / 1e6,
		transportErr: err,
	}
}

// problem checks a reply: transport, status, cache outcome and the
// approximate flag.
func (rep reply) problem(q serveReq, wantCache string) string {
	switch {
	case rep.transportErr != nil:
		return fmt.Sprintf("%s seed=%d: %v", q.col, q.seed, rep.transportErr)
	case rep.status != http.StatusOK:
		return fmt.Sprintf("%s seed=%d: status %d: %s", q.col, q.seed, rep.status, strings.TrimSpace(string(rep.body)))
	case rep.cache != wantCache:
		return fmt.Sprintf("%s seed=%d: cache %q, want %q", q.col, q.seed, rep.cache, wantCache)
	case rep.approximate != "false":
		return fmt.Sprintf("%s seed=%d: X-Flatsim-Approximate %q", q.col, q.seed, rep.approximate)
	}
	return ""
}

// parseTSV reads a served cell back into a Table.
func parseTSV(body []byte) *experiments.Table {
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	t := &experiments.Table{}
	if len(lines) < 2 {
		return t
	}
	t.Title = strings.TrimPrefix(lines[0], "# ")
	t.Header = strings.Split(lines[1], "\t")
	for _, l := range lines[2:] {
		t.AddRow(strings.Split(l, "\t")...)
	}
	return t
}

// computedProblem checks a computed cell's body as checkLambdaTable does.
func (r *run) computedProblem(q serveReq, rep reply) string {
	if p := rep.problem(q, "miss"); p != "" {
		return p
	}
	return checkLambdaTable(q.cellOp(r.plan.serveKMax), parseTSV(rep.body))
}

// hotCell is a filled hot-set entry.
type hotCell struct {
	key  string
	body []byte
}

// fill asks for every hot-set cell once (all misses), serveClients at a
// time, and returns the first body served for each.
func (r *run) fill(ls *liveServer, hot []serveReq) (map[serveReq]hotCell, error) {
	reps := make([]reply, len(hot))
	err := parallel.ForEach(len(hot), serveClients, func(i int) error {
		reps[i] = ls.get(hot[i].path(r.plan.serveKMax))
		return nil
	})
	if err != nil {
		return nil, err
	}
	cells := map[serveReq]hotCell{}
	for i, q := range hot {
		if p := r.computedProblem(q, reps[i]); p != "" {
			return nil, fmt.Errorf("filling the hot set: %s", p)
		}
		cells[q] = hotCell{reps[i].key, reps[i].body}
	}
	return cells, nil
}

// session drives the request list from serveClients closed-loop clients,
// each taking the next request once its previous reply is in.
func (r *run) session(ls *liveServer, ops []serveReq) []reply {
	reps := make([]reply, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				reps[i] = ls.get(ops[i].path(r.plan.serveKMax))
			}
		}()
	}
	wg.Wait()
	return reps
}

func runServeMixed(r *run) error {
	var hot, ops []serveReq
	var hotCells map[serveReq]hotCell
	var ls *liveServer
	for i := 0; i < setupRepeats; i++ {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return err
			}
			ls = nil
		}
		err := r.setup(func() error {
			var err error
			if hot, ops, err = r.serveOps(); err != nil {
				return err
			}
			if ls, err = startServer(filepath.Join(r.dir, fmt.Sprintf("store-%d", i))); err != nil {
				return err
			}
			hotCells, err = r.fill(ls, hot)
			return err
		})
		if err != nil {
			if ls != nil {
				_ = ls.stop() // the set-up error is the one to report
			}
			return err
		}
	}

	mark := markProc()
	t0 := time.Now()
	var reps []reply
	r.rssWindow(func() { reps = r.session(ls, ops) })
	r.runS = time.Since(t0).Seconds()
	for i, q := range ops {
		rep := reps[i]
		if q.hot {
			p := rep.problem(q, "hit")
			if p == "" && !bytes.Equal(rep.body, hotCells[q].body) {
				p = fmt.Sprintf("%s seed=%d: hit body differs from the body first served", q.col, q.seed)
			}
			r.latency(&r.hitMs, rep)
			r.op(p)
			continue
		}
		r.latency(&r.missMs, rep)
		r.op(r.computedProblem(q, rep))
	}
	if !r.trace {
		return ls.stop()
	}
	r.recordProc(mark)
	if err := r.readMetricsz(ls); err != nil {
		_ = ls.stop() // the metricsz error is the one to report
		return err
	}
	if err := ls.stop(); err != nil {
		return err
	}
	return r.replayServe(hot, hotCells, ops, reps)
}

// latency records a reply's latency in xs unless the request never got a
// reply; such a request already counts as failed.
func (r *run) latency(xs *[]float64, rep reply) {
	if rep.transportErr == nil {
		*xs = append(*xs, rep.ms)
	}
}

// readMetricsz records the server's own counters.
func (r *run) readMetricsz(ls *liveServer) error {
	rep := ls.get("/metricsz")
	if rep.transportErr != nil || rep.status != http.StatusOK {
		return fmt.Errorf("metricsz: status %d: %v", rep.status, rep.transportErr)
	}
	var m struct {
		Service metrics.ServiceStats `json:"service"`
		Store   store.Stats          `json:"store"`
	}
	if err := json.Unmarshal(rep.body, &m); err != nil {
		return fmt.Errorf("metricsz: %w", err)
	}
	r.layer["serve.hits"] = float64(m.Service.Hits)
	r.layer["serve.misses"] = float64(m.Service.Misses)
	r.layer["serve.shared"] = float64(m.Service.Shared)
	r.layer["serve.sheds"] = float64(m.Service.Sheds)
	r.layer["serve.errors"] = float64(m.Service.Errors)
	r.layer["store.entries"] = float64(m.Store.Entries)
	return nil
}

// replayServe replays the session on one goroutine as the server's layer
// calls: a hit is a store.Get under serve.lookup; a miss is
// experiments.Cell, the TSV encoding and a store.Put under serve.compute,
// on the same specs and content addresses the server used. Every replayed
// body is compared with the bytes the server sent.
func (r *run) replayServe(hot []serveReq, hotCells map[serveReq]hotCell, ops []serveReq, reps []reply) error {
	st, err := store.Open(filepath.Join(r.dir, "replay-store"))
	if err != nil {
		return err
	}
	var storeBytes float64
	for _, q := range hot {
		c := hotCells[q]
		if err := st.Put(c.key, c.body); err != nil {
			return err
		}
		storeBytes += float64(len(c.body))
	}
	ctx := context.Background()
	t := newTracer()
	t0 := time.Now()
	var matched float64
	for i, q := range ops {
		var body []byte
		if q.hot {
			t.do("serve.lookup", i, func() {
				var ok bool
				t.do("store.get", i, func() { body, ok, err = st.Get(reps[i].key) })
				if err == nil && !ok {
					err = fmt.Errorf("replay: hot cell %s seed=%d missing from the store", q.col, q.seed)
				}
			})
		} else {
			t.do("serve.compute", i, func() {
				op := q.cellOp(r.plan.serveKMax)
				var tab *experiments.Table
				t.do("experiments.cell", i, func() { tab, err = experiments.Cell(ctx, op.cfg, op.spec) })
				if err != nil {
					return
				}
				var buf bytes.Buffer
				if err = tab.WriteTSV(&buf); err != nil {
					return
				}
				body = buf.Bytes()
				t.do("store.put", i, func() { err = st.Put(reps[i].key, body) })
			})
			storeBytes += float64(len(body))
		}
		if err != nil {
			return err
		}
		if bytes.Equal(body, reps[i].body) {
			matched++
		}
	}
	replayS := time.Since(t0).Seconds()
	r.layer["store.bytes"] = storeBytes
	r.layer["trace.match_frac"] = matched / float64(len(ops))
	if err := r.finishTrace(t, replayS, r.runS); err != nil {
		return err
	}
	r.layer["serve.miss_overhead_ms"] = mean(r.missMs) - r.layer["experiments.cell_ms"] - r.layer["store.put_ms"]
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
