package dynsim

import (
	"context"
	"errors"
	"math"
	"testing"

	"flattree/internal/core"
	"flattree/internal/fattree"
	"flattree/internal/graph"
	"flattree/internal/mcf"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// lineNet is n switches in a line with one server on each.
func lineNet(n int) (*topo.Network, []int) {
	b := topo.NewBuilder("line")
	sw := make([]int, n)
	for i := range sw {
		sw[i] = b.AddNode(topo.EdgeSwitch, 0, i, 4)
	}
	for i := 0; i+1 < n; i++ {
		b.AddLink(sw[i], sw[i+1], topo.TagClos)
	}
	servers := make([]int, n)
	for i := range sw {
		servers[i] = b.AddNode(topo.Server, 0, i, 1)
		b.AddLink(servers[i], sw[i], topo.TagClos)
	}
	return b.Build(), servers
}

// sameSwitchNet is two linked switches with both servers on the first.
func sameSwitchNet() (nw *topo.Network, s0, s1 int) {
	b := topo.NewBuilder("one")
	sw := b.AddNode(topo.EdgeSwitch, 0, 0, 4)
	sw2 := b.AddNode(topo.EdgeSwitch, 0, 1, 4)
	b.AddLink(sw, sw2, topo.TagClos)
	s0 = b.AddNode(topo.Server, 0, 0, 1)
	s1 = b.AddNode(topo.Server, 0, 1, 1)
	b.AddLink(s0, sw, topo.TagClos)
	b.AddLink(s1, sw, topo.TagClos)
	return b.Build(), s0, s1
}

func TestSingleFlowFCT(t *testing.T) {
	nw, servers := lineNet(2)
	res, err := Simulate(context.Background(), nw, routing.NewKSP(nw, 1), []Arrival{
		{Time: 1, Src: servers[0], Dst: servers[1], Size: 5},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 1 {
		t.Fatalf("completed %d flows", len(res.Completed))
	}
	// Unit capacity, size 5 -> FCT 5, finishing at t=6.
	if math.Abs(res.Completed[0].FCT()-5) > 1e-9 || math.Abs(res.Completed[0].Finish-6) > 1e-9 {
		t.Errorf("record = %+v", res.Completed[0])
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	nw, servers := lineNet(2)
	res, err := Simulate(context.Background(), nw, routing.NewKSP(nw, 1), []Arrival{
		{Time: 0, Src: servers[0], Dst: servers[1], Size: 2},
		{Time: 0, Src: servers[0], Dst: servers[1], Size: 2},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Both share a unit link at rate 1/2: both finish at t=4.
	for _, f := range res.Completed {
		if math.Abs(f.Finish-4) > 1e-9 {
			t.Errorf("finish = %g, want 4", f.Finish)
		}
	}
}

func TestSequentialFlowsDontShare(t *testing.T) {
	nw, servers := lineNet(2)
	res, err := Simulate(context.Background(), nw, routing.NewKSP(nw, 1), []Arrival{
		{Time: 0, Src: servers[0], Dst: servers[1], Size: 1},
		{Time: 10, Src: servers[0], Dst: servers[1], Size: 1},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Completed {
		if math.Abs(f.FCT()-1) > 1e-9 {
			t.Errorf("FCT = %g, want 1 (no overlap)", f.FCT())
		}
	}
	if res.MeanFCT != 1 || res.P99FCT != 1 {
		t.Errorf("stats = %+v", res)
	}
}

func TestSameSwitchFlowInstant(t *testing.T) {
	nw, s0, s1 := sameSwitchNet()
	res, err := Simulate(context.Background(), nw, routing.NewKSP(nw, 1), []Arrival{
		{Time: 3, Src: s0, Dst: s1, Size: 100},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 1 || res.Completed[0].FCT() != 0 {
		t.Errorf("res = %+v", res)
	}
}

// TestDeparturesFreeCapacity: a short flow arriving alongside a long one
// finishes early, and the long one speeds up afterward.
func TestDeparturesFreeCapacity(t *testing.T) {
	nw, servers := lineNet(2)
	res, err := Simulate(context.Background(), nw, routing.NewKSP(nw, 1), []Arrival{
		{Time: 0, Src: servers[0], Dst: servers[1], Size: 10},
		{Time: 0, Src: servers[0], Dst: servers[1], Size: 1},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var short, long FlowRecord
	for _, f := range res.Completed {
		if f.Size == 1 {
			short = f
		} else {
			long = f
		}
	}
	// Short: shares at 1/2 until done at t=2. Long: 1 unit sent by t=2,
	// remaining 9 at rate 1 -> finishes t=11.
	if math.Abs(short.Finish-2) > 1e-9 {
		t.Errorf("short finish = %g, want 2", short.Finish)
	}
	if math.Abs(long.Finish-11) > 1e-9 {
		t.Errorf("long finish = %g, want 11", long.Finish)
	}
}

// TestConservation: total bytes delivered equals total bytes offered on a
// fat-tree with a random workload.
func TestFatTreeWorkload(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := graph.NewRNG(5)
	arr := PoissonPairs(f.ServerIDs, 2.0, 1.0, 60, rng)
	res, err := Simulate(context.Background(), f.Net, routing.NewKSP(f.Net, 4), arr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 60 || res.Unfinished != 0 {
		t.Fatalf("completed %d, unfinished %d", len(res.Completed), res.Unfinished)
	}
	if res.MeanFCT < 1 {
		t.Errorf("mean FCT %g below serialization bound 1", res.MeanFCT)
	}
	if res.P99FCT < res.MeanFCT {
		t.Errorf("p99 %g < mean %g", res.P99FCT, res.MeanFCT)
	}
	// FCTs must be monotone-consistent: finish >= arrival for every flow.
	for _, fr := range res.Completed {
		if fr.Finish < fr.Time-1e-9 {
			t.Fatalf("flow finished before it arrived: %+v", fr)
		}
	}
}

// TestHotspotFasterOnGlobalRandom: the convertibility payoff on a dynamic
// metric — the same hot-spot flow sequence completes faster after
// converting the flat-tree from Clos to global-random mode.
func TestHotspotFasterOnGlobalRandom(t *testing.T) {
	ft, err := core.Build(core.Params{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode core.Mode) float64 {
		if err := ft.SetUniformMode(mode); err != nil {
			t.Fatal(err)
		}
		nw := ft.Net()
		servers := nw.Servers()
		rng := graph.NewRNG(11)
		arr := PoissonHotspot(servers, servers[0], 4.0, 1.0, 150, rng)
		res, err := Simulate(context.Background(), nw, routing.NewKSP(nw, 8), arr, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanFCT
	}
	clos := run(core.ModeClos)
	global := run(core.ModeGlobalRandom)
	if global >= clos {
		t.Errorf("global-random mean FCT %g not better than Clos %g", global, clos)
	}
}

func TestErrors(t *testing.T) {
	nw, servers := lineNet(2)
	t.Run("Simulate", func(t *testing.T) { simulateErrors(t, nw, servers) })
	t.Run("MaxMin", func(t *testing.T) { maxMinErrors(t, nw, servers) })
}

func simulateErrors(t *testing.T, nw *topo.Network, servers []int) {
	long := Arrival{Time: 5, Src: servers[0], Dst: servers[1], Size: 1e9}
	for _, tc := range []struct {
		name          string
		arr           []Arrival
		maxConcurrent int
		// The partial result still counts and summarizes the flows that
		// completed before the error.
		completed int
		meanFCT   float64
	}{
		{"bad src", []Arrival{{Time: 0, Src: -5, Dst: servers[1], Size: 1}}, 0, 0, 0},
		{"concurrency limit", []Arrival{long, long, long, long, long}, 3, 0, 0},
		{"concurrency limit after completions", []Arrival{
			{Time: 0, Src: servers[0], Dst: servers[1], Size: 1}, long, long, long}, 2, 1, 1},
	} {
		res, err := Simulate(context.Background(), nw, routing.NewKSP(nw, 1), tc.arr, tc.maxConcurrent)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if len(res.Completed) != tc.completed || math.Abs(res.MeanFCT-tc.meanFCT) > 1e-9 {
			t.Errorf("%s: partial result %+v, want %d completed with mean FCT %g",
				tc.name, res, tc.completed, tc.meanFCT)
		}
	}
}

func maxMinErrors(t *testing.T, nw *topo.Network, servers []int) {
	for _, tc := range []struct {
		name  string
		comms []mcf.Commodity
	}{
		{"negative demand", []mcf.Commodity{{Src: servers[0], Dst: servers[1], Demand: -1}}},
		{"src out of range", []mcf.Commodity{{Src: nw.N() + 3, Dst: servers[1], Demand: 1}}},
		{"dst out of range", []mcf.Commodity{{Src: servers[0], Dst: -1, Demand: 1}}},
	} {
		if _, err := MaxMin(nw, routing.NewKSP(nw, 1), tc.comms); err == nil {
			t.Errorf("MaxMin %s: accepted", tc.name)
		}
	}
	res, err := MaxMin(nw, routing.NewKSP(nw, 1), nil)
	if err != nil || !math.IsInf(res.Lambda, 1) {
		t.Errorf("empty commodities: %+v, %v", res, err)
	}
}

// TestMaxMin: static progressive filling on small fabrics.
func TestMaxMin(t *testing.T) {
	line3, l3 := lineNet(3)
	line2, l2 := lineNet(2)
	one, s0, s1 := sameSwitchNet()
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	srv := f.ServerIDs
	inf := math.Inf(1)
	for _, tc := range []struct {
		name   string
		nw     *topo.Network
		scheme routing.Scheme
		comms  []mcf.Commodity
		lo, hi float64 // bounds on Lambda
	}{
		{"SingleFlowLine", line3, routing.NewKSP(line3, 2),
			[]mcf.Commodity{{Src: l3[0], Dst: l3[2], Demand: 1}}, 1, 1},
		{"FairShareOnSharedLink", line2, routing.NewKSP(line2, 1),
			[]mcf.Commodity{{Src: l2[0], Dst: l2[1], Demand: 1}, {Src: l2[0], Dst: l2[1], Demand: 1}}, 0.5, 0.5},
		{"LocalCommodityUnconstrained", one, routing.NewKSP(one, 1),
			[]mcf.Commodity{{Src: s0, Dst: s1, Demand: 1}}, inf, inf},
		// One edge switch to 3 pods, 4 ECMP paths each: the edge's 2
		// uplinks fairly shared give 2/3 each, more than one path's share.
		{"ECMPSpreadsLoad", f.Net, routing.NewECMP(f.Net, 0), []mcf.Commodity{
			{Src: srv[0], Dst: srv[4], Demand: 1},
			{Src: srv[0], Dst: srv[8], Demand: 1},
			{Src: srv[0], Dst: srv[12], Demand: 1},
		}, 0.5, inf},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := MaxMin(tc.nw, tc.scheme, tc.comms)
			if err != nil {
				t.Fatal(err)
			}
			if res.Lambda < tc.lo-1e-9 || res.Lambda > tc.hi+1e-9 {
				t.Errorf("lambda = %g, want in [%g, %g]", res.Lambda, tc.lo, tc.hi)
			}
		})
	}
}

// TestMaxMinNeverExceedsOptimal: flow-level max-min over ECMP paths is
// always a lower bound on the optimal-routing LP throughput.
func TestMaxMinNeverExceedsOptimal(t *testing.T) {
	f, err := fattree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	comms := []mcf.Commodity{
		{Src: f.ServerIDs[0], Dst: f.ServerIDs[8], Demand: 1},
		{Src: f.ServerIDs[1], Dst: f.ServerIDs[12], Demand: 1},
		{Src: f.ServerIDs[4], Dst: f.ServerIDs[15], Demand: 1},
	}
	res, err := MaxMin(f.Net, routing.NewECMP(f.Net, 0), comms)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := mcf.MaxConcurrentFlowExact(f.Net, comms)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda > exact+1e-9 {
		t.Errorf("max-min %g exceeds optimal %g", res.Lambda, exact)
	}
	if res.Lambda <= 0 {
		t.Errorf("lambda = %g, want > 0", res.Lambda)
	}
	if res.Subflows == 0 || res.MeanLambda < res.Lambda {
		t.Errorf("result inconsistent: %+v", res)
	}
}

func TestGenerators(t *testing.T) {
	rng := graph.NewRNG(1)
	servers := []int{10, 11, 12, 13}
	hs := PoissonHotspot(servers, 10, 1.0, 2.0, 50, rng)
	if len(hs) != 50 {
		t.Fatalf("len = %d", len(hs))
	}
	last := 0.0
	for _, a := range hs {
		if a.Src != 10 || a.Dst == 10 || a.Size != 2 {
			t.Fatalf("bad arrival %+v", a)
		}
		if a.Time <= last {
			t.Fatal("arrival times not increasing")
		}
		last = a.Time
	}
	pp := PoissonPairs(servers, 1.0, 1.0, 50, rng)
	for _, a := range pp {
		if a.Src == a.Dst {
			t.Fatal("self flow generated")
		}
	}
}

// TestSimulateCancelled: a cancelled context aborts the event loop with a
// wrapped ctx error and a partial (still internally consistent) result,
// instead of silently returning a complete-looking one.
func TestSimulateCancelled(t *testing.T) {
	nw, servers := lineNet(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Simulate(ctx, nw, routing.NewKSP(nw, 1), []Arrival{
		{Time: 1, Src: servers[0], Dst: servers[1], Size: 5},
	}, 0)
	if err == nil {
		t.Fatal("cancelled simulation returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if len(res.Completed) != 0 {
		t.Errorf("cancelled-at-start run completed %d flows", len(res.Completed))
	}
}
