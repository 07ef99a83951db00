package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/mcf"
	"flattree/internal/parallel"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// cellEpsilon is the ε of every cell the benchmark asks for (the FPTAS
// accuracy of the alltoall and serve-mixed solves); dualGapLimit is the
// converged-solve certificate the repository's solver tests hold warm and
// cold solves to.
const (
	cellEpsilon  = 0.1
	dualGapLimit = 3 * cellEpsilon
)

// fig8Families names Figure 8's topology columns in table order; each
// family has a strong-locality and a weak-locality column.
var fig8Families = []string{"fat-tree", "flat-tree", "two-stage-rg", "random-graph"}

// allToAllOps is the alltoall work list: one whole Figure 8 table
// (k = 4..allToAllKMax) per unit, each at its own seed from the workload
// seed's stream.
func (r *run) allToAllOps() ([]cellOp, error) {
	seeds := parallel.NewSeedStream(r.seed)
	ops := make([]cellOp, r.units())
	for i := range ops {
		ops[i] = cellOp{
			experiments.Config{KMin: 4, KMax: r.plan.allToAllKMax, KStep: 2, Seed: seeds.Seed(uint64(i)),
				Epsilon: cellEpsilon, Parallelism: 1},
			experiments.CellSpec{Experiment: "fig8"},
		}
	}
	return ops, nil
}

// checkLambdaTable validates a throughput table: one row per k, every
// data cell a positive λ converged to ε (no "~"), and the expected number
// of columns.
func checkLambdaTable(op cellOp, tab *experiments.Table) string {
	ks := op.cfg.Ks()
	if len(tab.Rows) != len(ks) {
		return fmt.Sprintf("%s seed=%d: %d rows, want %d", op.spec.Experiment, op.cfg.Seed, len(tab.Rows), len(ks))
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) || row[0] != strconv.Itoa(ks[i]) {
			return fmt.Sprintf("%s seed=%d: malformed row %v", op.spec.Experiment, op.cfg.Seed, row)
		}
		for _, c := range row[1:] {
			if strings.HasSuffix(c, "~") {
				return fmt.Sprintf("%s seed=%d k=%d: approximate cell %q", op.spec.Experiment, op.cfg.Seed, ks[i], c)
			}
			if v, err := strconv.ParseFloat(c, 64); err != nil || v <= 0 || v > 1 {
				return fmt.Sprintf("%s seed=%d k=%d: λ %q out of range", op.spec.Experiment, op.cfg.Seed, ks[i], c)
			}
		}
	}
	return ""
}

func runAllToAll(r *run) error {
	warmUp := cellOp{
		experiments.Config{KMin: 4, KMax: 6, KStep: 2, Seed: 1, Epsilon: cellEpsilon, Parallelism: 1},
		experiments.CellSpec{Experiment: "fig8", Column: "fat-tree/loc"},
	}
	return r.runCellWorkload(r.allToAllOps, 1, warmUp, checkLambdaTable, r.replayAllToAll)
}

// mcfTally accumulates the solver counters of a replay.
type mcfTally struct {
	solves, phases, dijkstras, warm, approx float64
	warmDijkstras, coldDijkstras            float64
	byFamily                                map[string]float64
	maxGap                                  float64
	commodities                             float64
}

func (m *mcfTally) add(family string, res mcf.Result) {
	m.solves++
	m.phases += float64(res.Phases)
	m.dijkstras += float64(res.Dijkstras)
	if res.WarmStarted {
		m.warm++
		m.warmDijkstras += float64(res.Dijkstras)
	} else {
		m.coldDijkstras += float64(res.Dijkstras)
	}
	if res.Approximate {
		m.approx++
	}
	m.byFamily[family] += float64(res.Dijkstras)
	if g := res.DualGap(); g > m.maxGap {
		m.maxGap = g
	}
}

func (m *mcfTally) record(layer map[string]float64) {
	layer["mcf.solves"] = m.solves
	layer["mcf.phases"] = m.phases
	layer["mcf.dijkstras"] = m.dijkstras
	layer["mcf.dijkstras.warm"] = m.warmDijkstras
	layer["mcf.dijkstras.cold"] = m.coldDijkstras
	for _, f := range fig8Families {
		layer["mcf.dijkstras."+f] = m.byFamily[f]
	}
	if m.solves > 0 {
		layer["mcf.warm_frac"] = m.warm / m.solves
		layer["mcf.approx_frac"] = m.approx / m.solves
	}
	layer["mcf.max_dual_gap"] = m.maxGap
	layer["traffic.commodities"] = m.commodities
}

// replayAllToAll re-executes every Figure 8 table as the layer calls
// experiments.Cell makes — the per-k suite builds, then per column one
// pooled mcf.Solver chain down k, each hop generating all-to-all
// commodities with the trial seed parallel.NewSeedStream gives — under
// spans. Every solve's λ is checked against its dual certificate, and the
// formatted λ against the bytes experiments.Cell printed.
func (r *run) replayAllToAll(t *tracer, ops []cellOp, tabs []*experiments.Table) error {
	ctx := context.Background()
	tally := &mcfTally{byFamily: map[string]float64{}}
	placements := []traffic.Placement{traffic.Locality, traffic.WeakLocality}
	var matched, compared float64
	for i, op := range ops {
		ks := op.cfg.Ks()
		cells := make([][]string, len(ks))
		var err error
		t.do("experiments.cell", i, func() {
			suites := make([]*suite, len(ks))
			for ki, k := range ks {
				if suites[ki], err = buildSuite(t, i, k, op.cfg.Seed, core.ModeLocalRandom, true); err != nil {
					return
				}
			}
			trialSeed := parallel.NewSeedStream(op.cfg.Seed).Seed(0)
			for ci := 0; ci < 2*len(fig8Families); ci++ {
				if err = r.replayChain(ctx, t, i, suites, ci, placements[ci%2], trialSeed, tally, cells); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		if tabs[i] == nil {
			continue
		}
		for ki, row := range cells {
			for ci, c := range row {
				compared++
				if ki < len(tabs[i].Rows) && ci+1 < len(tabs[i].Rows[ki]) && tabs[i].Rows[ki][ci+1] == c {
					matched++
				}
			}
		}
	}
	tally.record(r.layer)
	r.layer["trace.match_frac"] = matched / compared
	return nil
}

// replayChain is one Figure 8 column: a pooled Solver walking the suites
// down k, appending each formatted λ to its k's row of cells.
func (r *run) replayChain(ctx context.Context, t *tracer, i int, suites []*suite, ci int, pl traffic.Placement,
	seed uint64, tally *mcfTally, cells [][]string) error {
	family := fig8Families[ci/2]
	s := mcf.GetSolver()
	defer s.Release()
	for ki := range suites {
		res, err := r.solveAllToAll(ctx, t, i, s, suites[ki].fig8Nets()[ci/2], pl, seed, tally, family)
		if err != nil {
			return err
		}
		cell := fmt.Sprintf("%.4f", res.Lambda)
		if res.Approximate {
			cell += "~"
		}
		cells[ki] = append(cells[ki], cell)
	}
	return nil
}

// fig8Nets orders a suite's networks as fig8Families does.
func (s *suite) fig8Nets() []*topo.Network {
	return []*topo.Network{s.fat, s.flat, s.twoStage, s.rg}
}

// solveAllToAll is one hop of a Figure 8 column chain: cluster the
// servers, emit all-to-all commodities, solve on the chain's Solver, and
// check the result against its certificate.
func (r *run) solveAllToAll(ctx context.Context, t *tracer, i int, s *mcf.Solver, nw *topo.Network,
	pl traffic.Placement, seed uint64, tally *mcfTally, family string) (mcf.Result, error) {
	var comms []mcf.Commodity
	var err error
	t.do("traffic.gen", i, func() {
		var cl []traffic.Cluster
		cl, err = traffic.MakeClusters(nw, nw.Servers(), traffic.Spec{
			ClusterSize: experiments.AllToAllClusterSize, Placement: pl, Seed: seed,
		})
		if err == nil {
			comms = traffic.AllToAllCommodities(cl, experiments.AllToAllClusterSize)
		}
	})
	if err != nil {
		return mcf.Result{}, err
	}
	tally.commodities += float64(len(comms))
	var res mcf.Result
	t.do("mcf.solve", i, func() {
		res, err = s.Solve(ctx, nw, comms, mcf.Options{Epsilon: cellEpsilon})
	})
	if err != nil {
		return res, err
	}
	tally.add(family, res)
	switch {
	case res.Approximate:
		r.op(fmt.Sprintf("replay %s/%s: solve stopped before converging", family, pl))
	case res.Lambda > res.UpperBound:
		r.op(fmt.Sprintf("replay %s/%s: λ %g above its dual bound %g", family, pl, res.Lambda, res.UpperBound))
	case res.DualGap() > dualGapLimit:
		r.op(fmt.Sprintf("replay %s/%s: dual gap %g beyond %g", family, pl, res.DualGap(), dualGapLimit))
	default:
		r.op("")
	}
	return res, nil
}

// procMark snapshots the process counters at the start of a window.
type procMark struct {
	wall  time.Time
	cpu   float64
	alloc uint64
	gc    uint32
}

func markProc() procMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procMark{time.Now(), cpuSeconds(), ms.TotalAlloc, ms.NumGC}
}

// recordProc stores the wall time, CPU time, allocation and GC cycles of
// the window since m: the untraced pass of a traced run.
func (r *run) recordProc(m procMark) {
	now := markProc()
	r.layer["proc.wall_s"] = now.wall.Sub(m.wall).Seconds()
	r.layer["proc.cpu_s"] = now.cpu - m.cpu
	r.layer["proc.alloc_mb"] = float64(now.alloc-m.alloc) / 1e6
	r.layer["proc.gc_cycles"] = float64(now.gc - m.gc)
}
