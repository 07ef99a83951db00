package experiments

import (
	"context"
	"fmt"
	"time"

	"flattree/internal/core"
	"flattree/internal/mcf"
	"flattree/internal/parallel"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// throughput runs the paper's throughput methodology on one topology: build
// clusters under the placement policy, emit the pattern's commodities, and
// solve maximum concurrent flow on the caller's Solver (which carries the
// aggregated problem, arena, and warm-start state across a sweep's solves).
func throughput(ctx context.Context, s *mcf.Solver, nw *topo.Network, serverIDs []int, clusterSize int, placement traffic.Placement,
	pattern func([]traffic.Cluster) []mcf.Commodity, seed uint64, epsilon float64, budget time.Duration) (mcf.Result, error) {
	clusters, err := traffic.MakeClusters(nw, serverIDs, traffic.Spec{
		ClusterSize: clusterSize,
		Placement:   placement,
		Seed:        seed,
	})
	if err != nil {
		return mcf.Result{}, err
	}
	return s.Solve(ctx, nw, pattern(clusters), mcf.Options{Epsilon: epsilon, TimeBudget: budget})
}

// BroadcastClusterSize is the paper's hot-spot cluster size (§3.3).
const BroadcastClusterSize = 1000

// AllToAllClusterSize is the paper's all-to-all cluster size (§3.3).
const AllToAllClusterSize = 20

// broadcastPattern and allToAllPattern bind the nominal cluster sizes into
// the commodity generators so all throughput numbers share the paper's
// demand scale.
func broadcastPattern(cl []traffic.Cluster) []mcf.Commodity {
	return traffic.BroadcastCommodities(cl, BroadcastClusterSize)
}

func allToAllPattern(cl []traffic.Cluster) []mcf.Commodity {
	return traffic.AllToAllCommodities(cl, AllToAllClusterSize)
}

// figSolve is one solve's contribution to a throughput column.
type figSolve struct {
	lambda float64
	approx bool
}

// figSpec describes one throughput figure (7 or 8): the topology suite, the
// traffic pattern, and the table layout. It is the shared engine behind the
// full-table drivers and the per-column cell entry points, so a column
// computed alone runs exactly the code a full table run would.
type figSpec struct {
	fig          string
	title        string
	header       []string // column 0 is the "k" key column
	mode         core.Mode
	withTwoStage bool
	clusterSize  int
	placements   []traffic.Placement
	pattern      func([]traffic.Cluster) []mcf.Commodity
	netsOf       func(*suite) []*topo.Network
}

// numCols is the data-column count (networks × placements).
func (fs figSpec) numCols() int { return len(fs.header) - 1 }

// suites builds the per-k topology suites, fanned out over the worker pool.
// Each suite is a pure function of (k, cfg.Seed, mode), so a cell entry
// point rebuilding them sees byte-identical networks.
func (fs figSpec) suites(ctx context.Context, cfg Config) ([]*suite, error) {
	ks := cfg.Ks()
	return parallel.MapCtx(ctx, len(ks), cfg.workers(), func(i int) (*suite, error) {
		return buildSuite(ks[i], cfg.Seed, fs.mode, fs.withTwoStage)
	})
}

// columnTrial is the unit of work both the full figure and a single-column
// cell fan out over: one (column, trial) pair walking the adjacent-k solves
// in sweep order on one pooled mcf.Solver. Switches of a k-instance keep
// their (kind, pod, index) coordinates in the (k+step)-instance, so the
// relaxed warm gate maps the captured edge lengths across and warm-starts
// each hop of the column (cross-k seeding). Each warm λ stays inside the
// same ε contract as a cold solve, and the chain lives entirely inside this
// one work item, so its result is a pure function of (column, trial) —
// independent of scheduling, worker counts, and whether the surrounding run
// is a full table or a single extracted cell.
func (fs figSpec) columnTrial(ctx context.Context, cfg Config, suites []*suite, ci, tr int) ([]figSolve, error) {
	seeds := cfg.trialSeeds()
	numPl := len(fs.placements)
	s := mcf.GetSolver()
	defer s.Release()
	out := make([]figSolve, len(suites))
	for ki := range suites {
		nw := fs.netsOf(suites[ki])[ci/numPl]
		res, err := throughput(ctx, s, nw, serverIDsOf(nw), fs.clusterSize, fs.placements[ci%numPl],
			fs.pattern, seeds.Seed(uint64(tr)), cfg.Epsilon, cfg.SolveBudget)
		if err != nil {
			return nil, fmt.Errorf("%s k=%d net=%d trial=%d: %w", fs.fig, suites[ki].k, ci/numPl, tr, err)
		}
		out[ki] = figSolve{res.Lambda, res.Approximate}
	}
	return out, nil
}

// averageColumn folds one column's per-trial chains into the formatted
// cells, one per k. Trials are summed in index order, so the float digits
// are identical wherever the chains were computed.
func averageColumn(perTrial [][]figSolve, nk int) []string {
	cells := make([]string, nk)
	for ki := 0; ki < nk; ki++ {
		sum, approx := 0.0, false
		for _, chain := range perTrial {
			sum += chain[ki].lambda
			approx = approx || chain[ki].approx
		}
		cells[ki] = lambdaCell(sum/float64(len(perTrial)), approx)
	}
	return cells
}

// table measures every (topology, placement) column of the figure: the work
// items are the (column, trial) pairs, fanned out over cfg.Parallelism
// workers and merged in index order — byte-identical for every Parallelism
// setting.
func (fs figSpec) table(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{Title: fs.title, Header: fs.header}
	ks := cfg.Ks()
	if len(ks) == 0 {
		return t, nil
	}
	suites, err := fs.suites(ctx, cfg)
	if err != nil {
		return nil, err
	}
	trials := cfg.trials()
	cols := fs.numCols()
	lambdas, err := parallel.MapCtx(ctx, cols*trials, cfg.workers(), func(idx int) ([]figSolve, error) {
		return fs.columnTrial(ctx, cfg, suites, idx/trials, idx%trials)
	})
	if err != nil {
		return nil, err
	}
	colCells := make([][]string, cols)
	for ci := 0; ci < cols; ci++ {
		colCells[ci] = averageColumn(lambdas[ci*trials:(ci+1)*trials], len(ks))
	}
	for ki, k := range ks {
		row := []string{fmt.Sprint(k)}
		for ci := 0; ci < cols; ci++ {
			row = append(row, colCells[ci][ki])
		}
		t.AddRow(row...)
	}
	return t, nil
}

// column computes one data column as a standalone cell: the same
// columnTrial work items as a full table run, restricted to column ci, so
// every cell string is byte-identical to the one the full table prints.
func (fs figSpec) column(ctx context.Context, cfg Config, ci int) (*Table, error) {
	t := &Table{Title: fs.title, Header: []string{fs.header[0], fs.header[1+ci]}}
	ks := cfg.Ks()
	if len(ks) == 0 {
		return t, nil
	}
	suites, err := fs.suites(ctx, cfg)
	if err != nil {
		return nil, err
	}
	trials := cfg.trials()
	perTrial, err := parallel.MapCtx(ctx, trials, cfg.workers(), func(tr int) ([]figSolve, error) {
		return fs.columnTrial(ctx, cfg, suites, ci, tr)
	})
	if err != nil {
		return nil, err
	}
	cells := averageColumn(perTrial, len(ks))
	for ki, k := range ks {
		t.AddRow(fmt.Sprint(k), cells[ki])
	}
	return t, nil
}

// fig7Spec is Figure 7's layout: broadcast/incast traffic in 1000-server
// clusters for fat-tree, flat-tree (global-random mode), and random graph,
// each with strong locality and no locality.
func fig7Spec() figSpec {
	return figSpec{
		fig:   "fig7",
		title: "Figure 7: throughput of broadcast/incast traffic in 1000-server clusters",
		header: []string{"k",
			"fat-tree/loc", "fat-tree/noloc",
			"flat-tree/loc", "flat-tree/noloc",
			"random-graph/loc", "random-graph/noloc"},
		mode:        core.ModeGlobalRandom,
		clusterSize: BroadcastClusterSize,
		placements:  []traffic.Placement{traffic.Locality, traffic.NoLocality},
		pattern:     broadcastPattern,
		netsOf:      func(s *suite) []*topo.Network { return []*topo.Network{s.fat.Net, s.flat.Net(), s.rg.Net} },
	}
}

// fig8Spec is Figure 8's layout: all-to-all traffic in 20-server clusters
// for fat-tree, flat-tree (local-random mode), two-stage random graph, and
// random graph, each with strong and weak locality.
func fig8Spec() figSpec {
	return figSpec{
		fig:   "fig8",
		title: "Figure 8: throughput of all-to-all traffic in 20-server clusters",
		header: []string{"k",
			"fat-tree/loc", "fat-tree/weak",
			"flat-tree/loc", "flat-tree/weak",
			"two-stage-rg/loc", "two-stage-rg/weak",
			"random-graph/loc", "random-graph/weak"},
		mode:         core.ModeLocalRandom,
		withTwoStage: true,
		clusterSize:  AllToAllClusterSize,
		placements:   []traffic.Placement{traffic.Locality, traffic.WeakLocality},
		pattern:      allToAllPattern,
		netsOf: func(s *suite) []*topo.Network {
			return []*topo.Network{s.fat.Net, s.flat.Net(), s.twoStage.Net, s.rg.Net}
		},
	}
}

// Fig7 regenerates Figure 7, averaged over cfg.trials() placement seeds.
func Fig7(ctx context.Context, cfg Config) (*Table, error) {
	return fig7Spec().table(ctx, cfg)
}

// Fig8 regenerates Figure 8, averaged over cfg.trials() placement seeds.
func Fig8(ctx context.Context, cfg Config) (*Table, error) {
	return fig8Spec().table(ctx, cfg)
}
