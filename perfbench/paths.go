package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/fattree"
	"flattree/internal/jellyfish"
	"flattree/internal/metrics"
	"flattree/internal/parallel"
	"flattree/internal/topo"
	"flattree/internal/twostage"
)

// pathsCellsPerPass is the number of Figure 5 and 6 columns.
const pathsCellsPerPass = 7 + 4

// cellOp is one experiments.Cell call of a work list.
type cellOp struct {
	cfg  experiments.Config
	spec experiments.CellSpec
}

// pathsOps is the paths work list: units passes over every Figure 5 and
// Figure 6 column at k = pathsKMin..pathsKMax, each pass at its own seed
// from the workload seed's stream.
func (r *run) pathsOps() ([]cellOp, error) {
	seeds := parallel.NewSeedStream(r.seed)
	var ops []cellOp
	for p := 0; p < r.units(); p++ {
		cfg := experiments.Config{
			KMin: r.plan.pathsKMin, KMax: r.plan.pathsKMax, KStep: 2,
			Seed: seeds.Seed(uint64(p)), Epsilon: cellEpsilon, Parallelism: 1,
		}
		for _, exp := range []string{"fig5", "fig6"} {
			cols, err := experiments.Columns(exp)
			if err != nil {
				return nil, err
			}
			for _, c := range cols {
				ops = append(ops, cellOp{cfg, experiments.CellSpec{Experiment: exp, Column: c}})
			}
		}
	}
	return ops, nil
}

// fatTreeAPL is the closed-form mean server-pair path length of a k-ary
// fat-tree: k/2-1 partners 2 hops away on the same edge switch, k²/4-k/2
// at 4 hops in the same pod, and (k-1)k²/4 at 6 hops in other pods. With
// intraPod only the first two groups count.
func fatTreeAPL(k int, intraPod bool) float64 {
	h := float64(k) / 2
	sameEdge, samePod, otherPods := h-1, h*h-h, float64(k-1)*h*h
	if intraPod {
		otherPods = 0
	}
	return (2*sameEdge + 4*samePod + 6*otherPods) / (sameEdge + samePod + otherPods)
}

// checkPathsCell validates one Figure 5/6 column table and returns the
// first problem found ("" when the cell is right): one row per k, every
// value a path length in [2, 6] hops (or "-" where the Figure 5 (m, n)
// setting does not fit k), and the fat-tree columns equal to their closed
// form.
func checkPathsCell(op cellOp, tab *experiments.Table) string {
	ks := op.cfg.Ks()
	if len(tab.Rows) != len(ks) {
		return fmt.Sprintf("%s/%s: %d rows, want %d", op.spec.Experiment, op.spec.Column, len(tab.Rows), len(ks))
	}
	for i, row := range tab.Rows {
		k := ks[i]
		if len(row) != 2 || row[0] != strconv.Itoa(k) {
			return fmt.Sprintf("%s/%s: row %v, want k=%d", op.spec.Experiment, op.spec.Column, row, k)
		}
		if row[1] == "-" && op.spec.Experiment == "fig5" && !fig5Fits(op.spec.Column, k) {
			continue
		}
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil || v < 2 || v > 6 {
			return fmt.Sprintf("%s/%s k=%d: path length %q out of range", op.spec.Experiment, op.spec.Column, k, row[1])
		}
		if op.spec.Column == "fat-tree" {
			want := fmt.Sprintf("%.3f", fatTreeAPL(k, op.spec.Experiment == "fig6"))
			if row[1] != want {
				return fmt.Sprintf("%s/fat-tree k=%d: %s, closed form %s", op.spec.Experiment, k, row[1], want)
			}
		}
	}
	return ""
}

// fig5Fits reports whether a Figure 5 column is defined at k: the
// flat-tree (m, n) settings need m+n <= k/2.
func fig5Fits(col string, k int) bool {
	for _, s := range experiments.Fig5Settings {
		if s.Label() == col {
			m, n := s.Resolve(k)
			return m+n <= k/2
		}
	}
	return true
}

// runCells executes a work list through experiments.Cell, checking each
// cell, and returns the tables. Each window of opsPerWindow consecutive
// cells is one unit of work (a Figure 5+6 pass, a Figure 8 table): it
// records its latency and its peak RSS.
func (r *run) runCells(ops []cellOp, opsPerWindow int, check func(cellOp, *experiments.Table) string) []*experiments.Table {
	tabs := make([]*experiments.Table, len(ops))
	for w := 0; w < len(ops); w += opsPerWindow {
		t0 := time.Now()
		r.rssWindow(func() {
			for i := w; i < min(w+opsPerWindow, len(ops)); i++ {
				tabs[i] = r.runCell(ops[i], check)
			}
		})
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		r.hitMs = append(r.hitMs, ms)
		r.missMs = append(r.missMs, ms)
	}
	return tabs
}

// runCell executes and checks one cell.
func (r *run) runCell(op cellOp, check func(cellOp, *experiments.Table) string) *experiments.Table {
	tab, err := experiments.Cell(context.Background(), op.cfg, op.spec)
	if err != nil {
		r.op(fmt.Sprintf("%s/%s: %v", op.spec.Experiment, op.spec.Column, err))
		return nil
	}
	r.op(check(op, tab))
	return tab
}

// runCellWorkload is the shape paths and alltoall share: set up (work list
// plus one warm-up cell) setupRepeats times, run the list through
// experiments.Cell, and, when tracing, replay it layer by layer.
//
// Neither workload has a cache: asking for a figure again recomputes it,
// so hits and misses are the same population, the latency of one unit.
func (r *run) runCellWorkload(mkOps func() ([]cellOp, error), opsPerWindow int, warmUp cellOp,
	check func(cellOp, *experiments.Table) string,
	replay func(*tracer, []cellOp, []*experiments.Table) error) error {
	var ops []cellOp
	for i := 0; i < setupRepeats; i++ {
		err := r.setup(func() error {
			var err error
			if ops, err = mkOps(); err != nil {
				return err
			}
			_, err = experiments.Cell(context.Background(), warmUp.cfg, warmUp.spec)
			return err
		})
		if err != nil {
			return err
		}
	}
	mark := markProc()
	t0 := time.Now()
	tabs := r.runCells(ops, opsPerWindow, check)
	r.runS = time.Since(t0).Seconds()
	if !r.trace {
		return nil
	}
	r.recordProc(mark)
	t := newTracer()
	t1 := time.Now()
	if err := replay(t, ops, tabs); err != nil {
		return err
	}
	return r.finishTrace(t, time.Since(t1).Seconds(), r.runS)
}

func runPaths(r *run) error {
	warmUp := cellOp{
		experiments.Config{KMin: r.plan.pathsKMin, KMax: r.plan.pathsKMax, KStep: 2, Seed: 1, Epsilon: cellEpsilon, Parallelism: 1},
		experiments.CellSpec{Experiment: "fig6", Column: "fat-tree"},
	}
	return r.runCellWorkload(r.pathsOps, pathsCellsPerPass, warmUp, checkPathsCell, r.replayPaths)
}

// replayPaths re-executes every paths cell as the layer calls
// experiments.Cell makes — builders, then metrics.ServerPathLengths — under
// spans, checks each histogram, and compares the formatted path lengths
// with the bytes experiments.Cell printed.
func (r *run) replayPaths(t *tracer, ops []cellOp, tabs []*experiments.Table) error {
	var matched, compared, pairs float64
	for i, op := range ops {
		var cells []string
		var err error
		t.do("experiments.cell", i, func() {
			cells, err = r.replayPathsCell(t, i, op, &pairs)
		})
		if err != nil {
			return err
		}
		if tabs[i] == nil {
			continue
		}
		for ki, c := range cells {
			compared++
			if ki < len(tabs[i].Rows) && tabs[i].Rows[ki][1] == c {
				matched++
			}
		}
	}
	r.layer["metrics.server_pairs"] = pairs
	r.layer["trace.match_frac"] = matched / compared
	return nil
}

// replayPathsCell replays one Figure 5 or 6 column: per k, the builds the
// column's driver makes and one all-pairs path sweep.
func (r *run) replayPathsCell(t *tracer, i int, op cellOp, pairs *float64) ([]string, error) {
	var cells []string
	for _, k := range op.cfg.Ks() {
		var nw *topo.Network
		var err error
		intraPod := op.spec.Experiment == "fig6"
		if intraPod {
			nw, err = fig6Net(t, i, k, op.cfg.Seed, op.spec.Column)
		} else {
			if !fig5Fits(op.spec.Column, k) {
				cells = append(cells, "-")
				continue
			}
			nw, err = fig5Net(t, i, k, op.cfg.Seed, op.spec.Column)
		}
		if err != nil {
			return nil, err
		}
		var st metrics.PathLengthStats
		t.do("metrics.paths", i, func() { st, err = metrics.ServerPathLengths(nw) })
		if err != nil {
			return nil, err
		}
		n := int64(len(nw.Servers()))
		var sum int64
		for _, c := range st.Histogram {
			sum += c
		}
		if sum != n*(n-1)/2 {
			r.op(fmt.Sprintf("replay %s/%s k=%d: histogram sums to %d, want %d server pairs", op.spec.Experiment, op.spec.Column, k, sum, n*(n-1)/2))
		} else {
			r.op("")
		}
		*pairs += float64(sum)
		v := st.Global
		if intraPod {
			v = st.IntraPod
		}
		cells = append(cells, fmt.Sprintf("%.3f", v))
	}
	return cells, nil
}

// fig5Net builds the network of one Figure 5 column at k, as Figure 5's
// driver does.
func fig5Net(t *tracer, i, k int, seed uint64, col string) (*topo.Network, error) {
	var nw *topo.Network
	var err error
	t.do("topo.build", i, func() {
		switch col {
		case "fat-tree":
			var f *fattree.FatTree
			if f, err = fattree.New(k); err == nil {
				nw = f.Net
			}
		case "random-graph":
			var j *jellyfish.Jellyfish
			if j, err = jellyfish.New(k, seed); err == nil {
				nw = j.Net
			}
		default:
			for _, s := range experiments.Fig5Settings {
				if s.Label() != col {
					continue
				}
				m, n := s.Resolve(k)
				nw, err = buildFlat(core.Params{K: k, M: m, N: n}, core.ModeGlobalRandom)
			}
		}
	})
	if err == nil && nw == nil {
		err = fmt.Errorf("fig5: unknown column %q", col)
	}
	return nw, err
}

// fig6Net builds Figure 6's suite at k — all four topologies, as the
// driver does for every column — and returns the column's network.
func fig6Net(t *tracer, i, k int, seed uint64, col string) (*topo.Network, error) {
	s, err := buildSuite(t, i, k, seed, core.ModeLocalRandom, true)
	if err != nil {
		return nil, err
	}
	nets := map[string]*topo.Network{"flat-tree": s.flat, "fat-tree": s.fat, "random-graph": s.rg, "two-stage-rg": s.twoStage}
	nw, ok := nets[col]
	if !ok {
		return nil, fmt.Errorf("fig6: unknown column %q", col)
	}
	return nw, nil
}

// suite is one k's comparable topologies.
type suite struct {
	fat, rg, flat, twoStage *topo.Network
}

// buildSuite builds one k's topologies, one span per builder call, in the
// experiments drivers' order.
func buildSuite(t *tracer, i, k int, seed uint64, mode core.Mode, withTwoStage bool) (*suite, error) {
	s := &suite{}
	var err error
	t.do("topo.build", i, func() {
		var f *fattree.FatTree
		if f, err = fattree.New(k); err == nil {
			s.fat = f.Net
		}
	})
	if err != nil {
		return nil, err
	}
	t.do("topo.build", i, func() {
		var j *jellyfish.Jellyfish
		if j, err = jellyfish.New(k, seed); err == nil {
			s.rg = j.Net
		}
	})
	if err != nil {
		return nil, err
	}
	t.do("topo.build", i, func() { s.flat, err = buildFlat(core.Params{K: k}, mode) })
	if err != nil || !withTwoStage {
		return s, err
	}
	t.do("topo.build", i, func() {
		_, n := core.DefaultMN(k)
		var ts *twostage.TwoStage
		if ts, err = twostage.New(k, n, seed); err == nil {
			s.twoStage = ts.Net
		}
	})
	return s, err
}

// buildFlat builds a flat-tree in one uniform mode.
func buildFlat(p core.Params, mode core.Mode) (*topo.Network, error) {
	ft, err := core.Build(p)
	if err != nil {
		return nil, err
	}
	if err := ft.SetUniformMode(mode); err != nil {
		return nil, err
	}
	return ft.Net(), nil
}
