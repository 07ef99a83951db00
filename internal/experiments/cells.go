package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"flattree/internal/chaos"
	"flattree/internal/faults"
)

// CellSpec names one experiment cell: an experiment plus, for the figure
// sweeps, the data column to compute. Scenario experiments (faults,
// faultsrecovery, selfheal, soak, latency, hybrid, profile, props) are
// served whole — their stage rows are one coupled trajectory, not
// independent columns — and an optional Column selects a projection of the
// finished table.
//
// The spec carries only result-identity inputs; execution knobs
// (parallelism, solve budgets) live on Config and never change
// the bytes a cell prints.
type CellSpec struct {
	// Experiment is one of CellExperiments().
	Experiment string
	// Column selects a data column by header name; empty means the whole
	// table.
	Column string
	// K is the network size for the single-k scenario experiments
	// (faults, faultsrecovery, selfheal, soak, latency); 0 means
	// cfg.KMax. Ignored by the k-sweep figures.
	K int
	// ProfileK is the profile experiment's network size; 0 means 16
	// (cmd/flatsim's default).
	ProfileK int
	// FailFrac and Batch parameterize selfheal (defaults 0.25 and 1);
	// Batch also feeds soak's repair windows.
	FailFrac float64
	Batch    int
	// Load is latency's relative offered load (0 picks the driver's
	// default).
	Load float64
	// Scenario parameterizes faultsrecovery.
	Scenario faults.Scenario
	// Soak parameterizes the chaos soak; zero fields take cmd/flatsim's
	// flag defaults (rate 1, horizon 20, window cost 0.25, SLO 0.9,
	// batch 1).
	Soak chaos.Options
}

// cellK resolves the scenario network size.
func (sp CellSpec) cellK(cfg Config) int {
	if sp.K > 0 {
		return sp.K
	}
	return cfg.KMax
}

// CellExperiments lists the experiments Cell accepts, sorted.
func CellExperiments() []string {
	names := []string{
		"fig5", "fig6", "fig7", "fig8",
		"faults", "faultsrecovery", "selfheal", "soak",
		"latency", "hybrid", "profile", "props",
	}
	sort.Strings(names)
	return names
}

// Columns returns a figure experiment's selectable data-column names, in
// table order. Scenario experiments return nil: their columns exist only
// once the trajectory has run, so they are served as whole tables (Cell
// can still project one column out afterwards).
func Columns(experiment string) ([]string, error) {
	var h []string
	switch experiment {
	case "fig5":
		h = fig5Header()
	case "fig6":
		h = fig6Header()
	case "fig7":
		h = fig7Spec().header
	case "fig8":
		h = fig8Spec().header
	default:
		for _, e := range CellExperiments() {
			if e == experiment {
				return nil, nil
			}
		}
		return nil, fmt.Errorf("experiments: unknown experiment %q", experiment)
	}
	return h[1:], nil
}

// columnIndex resolves a column name against a header's data columns.
func columnIndex(header []string, col string) (int, error) {
	for i, h := range header[1:] {
		if h == col {
			return i, nil
		}
	}
	return 0, fmt.Errorf("experiments: no column %q (have %s)", col, strings.Join(header[1:], ", "))
}

// ProjectColumn narrows a finished table to its key column plus one named
// data column. The projected cells are the full table's bytes, untouched.
func ProjectColumn(t *Table, col string) (*Table, error) {
	ci, err := columnIndex(t.Header, col)
	if err != nil {
		return nil, err
	}
	p := &Table{Title: t.Title, Header: []string{t.Header[0], t.Header[1+ci]}}
	for _, r := range t.Rows {
		if 1+ci < len(r) {
			p.AddRow(r[0], r[1+ci])
		} else {
			p.AddRow(r[0])
		}
	}
	return p, nil
}

// Approximate reports whether any cell carries the trailing "~" marking a
// budget-truncated (valid but not ε-converged) solve. Serving layers use it
// to keep approximate results out of permanent caches.
func (t *Table) Approximate() bool {
	for _, r := range t.Rows {
		for _, c := range r {
			if strings.HasSuffix(c, "~") {
				return true
			}
		}
	}
	return false
}

// Cell computes one experiment cell. Figure columns run only that column's
// work items — the identical (column, trial) chains a full table run fans
// out, so the cell is byte-identical to the same column of the full table.
// Scenario experiments run their whole driver and, when Column is set,
// project it afterwards.
func Cell(ctx context.Context, cfg Config, sp CellSpec) (*Table, error) {
	fig := func(header func() []string, column func(context.Context, Config, int) (*Table, error),
		table func(context.Context, Config) (*Table, error)) (*Table, error) {
		if sp.Column == "" {
			return table(ctx, cfg)
		}
		ci, err := columnIndex(header(), sp.Column)
		if err != nil {
			return nil, err
		}
		return column(ctx, cfg, ci)
	}
	project := func(t *Table, err error) (*Table, error) {
		if err != nil || sp.Column == "" {
			return t, err
		}
		return ProjectColumn(t, sp.Column)
	}
	switch sp.Experiment {
	case "fig5":
		return fig(fig5Header, fig5Column, Fig5)
	case "fig6":
		return fig(fig6Header, fig6Column, Fig6)
	case "fig7":
		s := fig7Spec()
		return fig(func() []string { return s.header }, s.column, s.table)
	case "fig8":
		s := fig8Spec()
		return fig(func() []string { return s.header }, s.column, s.table)
	case "faults":
		return project(Faults(ctx, cfg, sp.cellK(cfg)))
	case "faultsrecovery":
		return project(FaultsRecovery(ctx, cfg, sp.cellK(cfg), sp.Scenario))
	case "selfheal":
		failFrac, batch := sp.FailFrac, sp.Batch
		if failFrac <= 0 {
			failFrac = 0.25
		}
		if batch == 0 {
			batch = 1
		}
		return project(SelfHeal(ctx, cfg, sp.cellK(cfg), failFrac, batch))
	case "soak":
		o := sp.Soak
		if o.Rate <= 0 {
			o.Rate = 1
		}
		if o.Horizon <= 0 {
			o.Horizon = 20
		}
		if o.WindowCost <= 0 {
			o.WindowCost = 0.25
		}
		if o.SLOThreshold <= 0 {
			o.SLOThreshold = 0.9
		}
		if o.BatchSize <= 0 {
			o.BatchSize = 1
		}
		t, _, err := Soak(ctx, cfg, sp.cellK(cfg), o)
		return project(t, err)
	case "latency":
		return project(Latency(ctx, cfg, sp.cellK(cfg), sp.Load))
	case "hybrid":
		t, _, err := Hybrid(ctx, cfg)
		return project(t, err)
	case "profile":
		pk := sp.ProfileK
		if pk == 0 {
			pk = 16
		}
		t, _, err := Profile(ctx, cfg, pk)
		return project(t, err)
	case "props":
		t, _, err := Props(ctx, cfg)
		return project(t, err)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", sp.Experiment)
}
