// Command flatsim regenerates the flat-tree paper's evaluation (§3): every
// figure's data series, the (m, n) profiling procedure, and the wiring
// property checks, printed as aligned tables or TSV.
//
// Usage:
//
//	flatsim [flags] fig5|fig6|fig7|fig8|hybrid|profile|props|faults|faultsrecovery|selfheal|soak|latency|stats|export|all
//	flatsim serve [serve flags]
//
// Examples:
//
//	flatsim -kmax 32 fig5            # the paper's full sweep
//	flatsim -kmax 12 -eps 0.1 fig8   # throughput sweep, laptop scale
//	flatsim -hybridk 30 hybrid       # the paper's 30-pod hybrid study
//	flatsim -tsv all > results.tsv
//	flatsim -kmax 8 -trials 5 faultsrecovery   # §5 failure -> recovery table
//	flatsim -kmax 8 -failfrac 0.25 selfheal    # live self-healing trajectory
//	flatsim -kmax 8 -rate 1 -horizon 20 soak   # chaos soak: continuous failures vs self-healing
//	flatsim serve -listen :8447 -store ./flatstore   # experiment service with a persistent cell cache
//
// Long sweeps respond to Ctrl-C / SIGTERM and to -timeout by stopping
// promptly with a partial-result message; already-printed tables remain
// valid.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"flattree/internal/chaos"
	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/fattree"
	"flattree/internal/faults"
	"flattree/internal/jellyfish"
	"flattree/internal/mcf"
	"flattree/internal/topo"
	"flattree/internal/twostage"
)

func main() {
	// The serve subcommand has its own flag surface (service knobs, not
	// experiment parameters), so it dispatches before the global FlagSet
	// sees the arguments.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	cfg := experiments.DefaultConfig()
	var (
		kmin    = flag.Int("kmin", cfg.KMin, "smallest fat-tree parameter k (even)")
		kmax    = flag.Int("kmax", cfg.KMax, "largest fat-tree parameter k")
		kstep   = flag.Int("kstep", cfg.KStep, "k sweep step")
		seed    = flag.Uint64("seed", cfg.Seed, "seed for random constructions and placements")
		eps     = flag.Float64("eps", cfg.Epsilon, "max-concurrent-flow approximation epsilon")
		hybridk = flag.Int("hybridk", cfg.HybridK, "network size for the hybrid experiment (paper: 30)")
		profk   = flag.Int("profilek", 16, "network size for the profiling experiment")
		trials  = flag.Int("trials", 1, "average randomized experiments over this many seeds")
		par     = flag.Int("parallel", 0, "worker goroutines per experiment sweep (0 = all cores); output is identical for every setting")
		tsv     = flag.Bool("tsv", false, "emit tab-separated values instead of aligned tables")
		expK    = flag.Int("exportk", 4, "network size for the export subcommand")
		expMode = flag.String("exportmode", "global-random", "flat-tree mode for the export subcommand")
		expFmt  = flag.String("format", "dot", "export format: dot or json")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
		timeout = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")

		switchFrac = flag.Float64("switchfrac", 0, "faultsrecovery: fraction of switches failed per trial")
		burstPods  = flag.Int("burstpods", 0, "faultsrecovery: pods hit by a correlated link burst")
		burstFrac  = flag.Float64("burstfrac", 0, "faultsrecovery: fraction of each burst pod's links failed")
		convFrac   = flag.Float64("convfrac", 0, "faultsrecovery: fraction of converter blocks that die (pinning their links)")

		solveBudget = flag.Duration("solvebudget", 0, "wall-clock budget per MCF solve; budget-limited cells carry a trailing ~ (0 = unbounded)")
		failFrac    = flag.Float64("failfrac", 0.25, "selfheal: fraction of pod agents killed mid-run")
		batch       = flag.Int("batch", 1, "selfheal/soak: pods re-aimed per dark window")

		soakRate     = flag.Float64("rate", 1, "soak: episode arrival rate per unit virtual time")
		soakHorizon  = flag.Float64("horizon", 20, "soak: virtual duration of the soak")
		soakEpisodes = flag.Int("episodes", 0, "soak: cap on spawned episodes (0 = unlimited)")
		soakWindow   = flag.Float64("windowcost", 0.25, "soak: virtual time one dark repair window occupies")
		soakSLO      = flag.Float64("slo", 0.9, "soak: served-capacity fraction the availability verdict is judged against")
		soakMix      = flag.String("mix", "", "soak: episode mix weights link,switch,conv,pod (empty = 5,3,1,1)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: flatsim [flags] fig5|fig6|fig7|fig8|hybrid|profile|props|faults|faultsrecovery|selfheal|soak|latency|stats|export|all\n"+
			"       flatsim serve [serve flags]   (see flatsim serve -h)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	cfg.KMin, cfg.KMax, cfg.KStep = *kmin, *kmax, *kstep
	cfg.Seed, cfg.Epsilon, cfg.HybridK = *seed, *eps, *hybridk
	cfg.Trials = *trials
	cfg.Parallelism = *par
	cfg.SolveBudget = *solveBudget

	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	// Reject nonsense before any experiment spends time on it. Fractions
	// are validated here with the same [0,1) domain the faults package
	// enforces, so the error arrives before a sweep's first table rather
	// than from deep inside trial 0.
	badFlag := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "flatsim: "+format+"\n", args...)
		os.Exit(2)
	}
	if *timeout < 0 {
		badFlag("-timeout %v is negative; use 0 for no limit", *timeout)
	}
	if *solveBudget < 0 {
		badFlag("-solvebudget %v is negative; use 0 for unbounded solves", *solveBudget)
	}
	// Fixed-order slice, not a map literal: which flag the error names
	// must not depend on map iteration order.
	for _, fr := range []struct {
		name string
		f    float64
	}{
		{"-switchfrac", *switchFrac}, {"-burstfrac", *burstFrac}, {"-convfrac", *convFrac},
	} {
		if fr.f < 0 || fr.f >= 1 {
			badFlag("%s %g out of [0,1)", fr.name, fr.f)
		}
	}
	if *failFrac <= 0 || *failFrac >= 1 {
		badFlag("-failfrac %g out of (0,1)", *failFrac)
	}
	if *burstPods < 0 {
		badFlag("-burstpods %d is negative", *burstPods)
	}
	if *batch <= 0 {
		badFlag("-batch %d must be positive", *batch)
	}
	if *trials <= 0 {
		badFlag("-trials %d must be positive", *trials)
	}
	if *eps <= 0 || *eps >= 0.5 {
		badFlag("-eps %g out of (0,0.5)", *eps)
	}
	if *soakRate <= 0 {
		badFlag("-rate %g must be positive", *soakRate)
	}
	if *soakHorizon <= 0 {
		badFlag("-horizon %g must be positive", *soakHorizon)
	}
	if *soakEpisodes < 0 {
		badFlag("-episodes %d is negative; use 0 for unlimited", *soakEpisodes)
	}
	if *soakWindow <= 0 {
		badFlag("-windowcost %g must be positive", *soakWindow)
	}
	if *soakSLO <= 0 || *soakSLO > 1 {
		badFlag("-slo %g out of (0,1]", *soakSLO)
	}
	mix, err := parseMix(*soakMix)
	if err != nil {
		badFlag("%v", err)
	}

	// Ctrl-C / SIGTERM and -timeout cancel the experiment context; drivers
	// stop handing out cells promptly and return the context's error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Profiling hooks: full-scale runs (e.g. -kmax 32 fig7) can be
	// profiled without editing code. The profiles cover the experiment
	// itself, not flag parsing.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			check(err)
			runtime.GC() // report live heap, not transient garbage
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}()
	}

	emit := func(t *experiments.Table) {
		if *tsv {
			if err := t.WriteTSV(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
			return
		}
		fmt.Println(t.String())
	}

	var run func(string)
	run = func(name string) {
		// One warm-start summary line per experiment (stderr, so piped TSV
		// stays clean): how many MCF solves reused a previous solve's length
		// function, and why the cold ones didn't. The counters are process-
		// wide totals, so diff around the experiment; "all" recurses and
		// lets each child report itself.
		before := mcf.ReadWarmStats()
		defer func() {
			if name == "all" {
				return
			}
			after := mcf.ReadWarmStats()
			hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
			if solves := hits + misses; solves > 0 {
				fmt.Fprintf(os.Stderr,
					"flatsim: %s: %d/%d MCF solves warm-started (%.0f%%); cold: %d first-solve, %d eps-mismatch, %d low-overlap, %d overshoot-retry\n",
					name, hits, solves, 100*float64(hits)/float64(solves),
					after.FirstSolve-before.FirstSolve, after.Epsilon-before.Epsilon,
					after.Overlap-before.Overlap, after.ColdRetry-before.ColdRetry)
			}
		}()
		switch name {
		case "fig5":
			t, err := experiments.Fig5(ctx, cfg)
			check(err)
			emit(t)
		case "fig6":
			t, err := experiments.Fig6(ctx, cfg)
			check(err)
			emit(t)
		case "fig7":
			t, err := experiments.Fig7(ctx, cfg)
			check(err)
			emit(t)
		case "fig8":
			t, err := experiments.Fig8(ctx, cfg)
			check(err)
			emit(t)
		case "hybrid":
			t, _, err := experiments.Hybrid(ctx, cfg)
			check(err)
			emit(t)
		case "profile":
			t, res, err := experiments.Profile(ctx, cfg, *profk)
			check(err)
			emit(t)
			fmt.Printf("best: m=%d n=%d apl=%.3f (paper's default: m=%d n=%d)\n",
				res.BestM, res.BestN, res.BestAPL, res.K/8, 2*res.K/8)
		case "props":
			t, _, err := experiments.Props(ctx, cfg)
			check(err)
			emit(t)
		case "faults":
			t, err := experiments.Faults(ctx, cfg, cfg.KMax)
			check(err)
			emit(t)
		case "faultsrecovery":
			t, err := experiments.FaultsRecovery(ctx, cfg, cfg.KMax, faults.Scenario{
				SwitchFraction:    *switchFrac,
				BurstPods:         *burstPods,
				BurstLinkFraction: *burstFrac,
				ConverterFraction: *convFrac,
			})
			check(err)
			emit(t)
		case "selfheal":
			t, err := experiments.SelfHeal(ctx, cfg, cfg.KMax, *failFrac, *batch)
			check(err)
			emit(t)
		case "soak":
			// Start the soak from a clean warm-start ledger so the per-batch
			// lines below describe this soak alone, not whatever ran before.
			mcf.ResetWarmStats()
			t, arms, err := experiments.Soak(ctx, cfg, cfg.KMax, chaos.Options{
				Rate:         *soakRate,
				Horizon:      *soakHorizon,
				MaxEpisodes:  *soakEpisodes,
				WindowCost:   *soakWindow,
				BatchSize:    *batch,
				SLOThreshold: *soakSLO,
				Mix:          mix,
			})
			// One warm-rate line per episode batch (the segments sharing one
			// episode index solve in series on one solver), per arm — stderr,
			// so piped TSV stays clean.
			for _, arm := range arms {
				for _, g := range arm.Result.Groups {
					label := fmt.Sprintf("episode %d", g.Episode)
					if g.Episode < 0 {
						label = "baseline"
					}
					rate := 0.0
					if g.Solves > 0 {
						rate = 100 * float64(g.Warm) / float64(g.Solves)
					}
					fmt.Fprintf(os.Stderr, "flatsim: soak %s: %s: %d/%d solves warm-started (%.0f%%)\n",
						arm.Name, label, g.Warm, g.Solves, rate)
				}
			}
			// The partial table is still valid on cancellation; print what
			// finished before reporting the interruption.
			if len(t.Rows) > 0 {
				emit(t)
			}
			check(err)
		case "latency":
			t, err := experiments.Latency(ctx, cfg, cfg.KMax, 0)
			check(err)
			emit(t)
		case "stats":
			emit(statsTable(cfg))
		case "export":
			exportNetwork(*expK, *expMode, *expFmt)
		case "all":
			for _, n := range []string{"stats", "props", "fig5", "fig6", "fig7", "fig8", "hybrid", "profile", "faults", "faultsrecovery", "selfheal", "soak", "latency"} {
				run(n)
			}
		default:
			fmt.Fprintf(os.Stderr, "flatsim: unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
	}
	run(flag.Arg(0))
}

// statsTable summarizes the constructed topologies per k: equipment counts
// and link tag breakdown for flat-tree in each mode.
func statsTable(cfg experiments.Config) *experiments.Table {
	t := &experiments.Table{
		Title: "topology inventory per k",
		Header: []string{"k", "topology", "servers", "switches", "links",
			"clos-links", "conv-links", "side-links", "rand-links"},
	}
	for _, k := range cfg.Ks() {
		add := func(name string, nw *topo.Network) {
			st := nw.Stats()
			t.AddRow(fmt.Sprint(k), name,
				fmt.Sprint(st.Servers),
				fmt.Sprint(st.EdgeSwitches+st.AggSwitches+st.CoreSwitches),
				fmt.Sprint(st.Links),
				fmt.Sprint(st.LinksByTag[topo.TagClos]),
				fmt.Sprint(st.LinksByTag[topo.TagConverter]),
				fmt.Sprint(st.LinksByTag[topo.TagSide]),
				fmt.Sprint(st.LinksByTag[topo.TagRandom]))
		}
		fat, err := fattree.New(k)
		check(err)
		add("fat-tree", fat.Net)
		rg, err := jellyfish.New(k, cfg.Seed)
		check(err)
		add("random-graph", rg.Net)
		_, n := core.DefaultMN(k)
		ts, err := twostage.New(k, n, cfg.Seed)
		check(err)
		add("two-stage-rg", ts.Net)
		ft, err := core.Build(core.Params{K: k})
		check(err)
		for _, mode := range []core.Mode{core.ModeClos, core.ModeGlobalRandom, core.ModeLocalRandom} {
			check(ft.SetUniformMode(mode))
			add("flat-tree/"+mode.String(), ft.Net())
		}
	}
	return t
}

// exportNetwork writes a flat-tree's effective network to stdout as DOT or
// JSON for external visualization and tooling.
func exportNetwork(k int, mode, format string) {
	ft, err := core.Build(core.Params{K: k})
	check(err)
	var m core.Mode
	switch mode {
	case "clos":
		m = core.ModeClos
	case "global-random":
		m = core.ModeGlobalRandom
	case "local-random":
		m = core.ModeLocalRandom
	default:
		fatal(fmt.Errorf("unknown export mode %q", mode))
	}
	check(ft.SetUniformMode(m))
	switch format {
	case "dot":
		check(ft.Net().WriteDOT(os.Stdout))
	case "json":
		check(ft.Net().WriteJSON(os.Stdout))
	default:
		fatal(fmt.Errorf("unknown export format %q", format))
	}
}

// parseMix turns the -mix flag ("link,switch,conv,pod" relative weights)
// into a chaos.Mix, keeping DefaultMix's severity knobs; empty selects the
// default mix entirely.
func parseMix(s string) (chaos.Mix, error) {
	if s == "" {
		return chaos.Mix{}, nil
	}
	var w [4]float64
	fields := strings.Split(s, ",")
	if len(fields) != len(w) {
		return chaos.Mix{}, fmt.Errorf("-mix %q needs exactly %d comma-separated weights (link,switch,conv,pod)", s, len(w))
	}
	total := 0.0
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v < 0 {
			return chaos.Mix{}, fmt.Errorf("-mix weight %q must be a number >= 0", f)
		}
		w[i] = v
		total += v
	}
	if total <= 0 {
		return chaos.Mix{}, fmt.Errorf("-mix %q has no positive weight", s)
	}
	m := chaos.DefaultMix()
	m.LinkBurst, m.SwitchKill, m.ConverterKill, m.PodKill = w[0], w[1], w[2], w[3]
	return m, nil
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "flatsim: run cancelled, results are partial:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "flatsim:", err)
	os.Exit(1)
}
