package dynsim

import (
	"fmt"
	"math"

	"flattree/internal/mcf"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// pair is an unordered switch pair (a ≤ b) or an ordered (src, dst) key.
type pair struct{ a, b int32 }

// fluid is the switch-level model shared by Simulate and MaxMin: every
// switch-switch link has unit capacity (parallel links pool theirs), server
// links are uncapacitated, and the scheme's candidate paths are translated
// to link indices once per switch pair.
type fluid struct {
	nw       *topo.Network
	scheme   routing.Scheme
	linkIdx  map[pair]int32
	capacity []float64
	paths    map[pair][][]int32
	// onLink[li] lists the flows crossing link li as of the last fill.
	onLink   [][]int32
	used     []float64
	unfrozen []int
}

func newFluid(nw *topo.Network, scheme routing.Scheme) *fluid {
	fl := &fluid{nw: nw, scheme: scheme, linkIdx: make(map[pair]int32), paths: make(map[pair][][]int32)}
	for _, l := range nw.Links {
		if !nw.Nodes[l.A].Kind.IsSwitch() || !nw.Nodes[l.B].Kind.IsSwitch() {
			continue
		}
		a, b := int32(l.A), int32(l.B)
		if a > b {
			a, b = b, a
		}
		if li, ok := fl.linkIdx[pair{a, b}]; ok {
			fl.capacity[li]++
			continue
		}
		fl.linkIdx[pair{a, b}] = int32(len(fl.capacity))
		fl.capacity = append(fl.capacity, 1)
	}
	fl.onLink = make([][]int32, len(fl.capacity))
	fl.used = make([]float64, len(fl.capacity))
	fl.unfrozen = make([]int, len(fl.capacity))
	return fl
}

// hostOf maps a node to the switch that carries its traffic.
func (fl *fluid) hostOf(v int) (int, error) {
	if v < 0 || v >= fl.nw.N() {
		return 0, fmt.Errorf("dynsim: node %d out of range", v)
	}
	if fl.nw.Nodes[v].Kind.IsSwitch() {
		return v, nil
	}
	h := fl.nw.HostSwitch(v)
	if h < 0 {
		return 0, fmt.Errorf("dynsim: server %d detached", v)
	}
	return h, nil
}

// pathsFor returns the scheme's candidate paths s→d as link-index lists,
// dropping any path that leaves the switch fabric.
func (fl *fluid) pathsFor(s, d int) ([][]int32, error) {
	key := pair{int32(s), int32(d)}
	if ps, ok := fl.paths[key]; ok {
		return ps, nil
	}
	cand, err := fl.scheme.Paths(s, d)
	if err != nil {
		return nil, err
	}
	var out [][]int32
	for _, p := range cand {
		var links []int32
		ok := true
		for i := 0; i+1 < len(p.Nodes); i++ {
			a, b := p.Nodes[i], p.Nodes[i+1]
			if a > b {
				a, b = b, a
			}
			li, found := fl.linkIdx[pair{a, b}]
			if !found {
				ok = false
				break
			}
			links = append(links, li)
		}
		if ok {
			out = append(out, links)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dynsim: no usable path %d->%d", s, d)
	}
	fl.paths[key] = out
	return out, nil
}

// fill sets rates[i] to the max-min fair rate of the flow crossing the
// links flows[i], by progressive filling: all unfrozen flows grow at an
// equal rate, and when a link saturates every flow through it freezes at
// the current fill level. A flow crossing no link is unconstrained (+Inf).
func (fl *fluid) fill(flows [][]int32, rates []float64) {
	for li := range fl.onLink {
		fl.onLink[li] = fl.onLink[li][:0]
	}
	for fi, links := range flows {
		rates[fi] = math.Inf(1) // +Inf marks a flow not yet frozen
		for _, li := range links {
			fl.onLink[li] = append(fl.onLink[li], int32(fi))
		}
	}
	for li, fs := range fl.onLink {
		fl.used[li] = 0
		fl.unfrozen[li] = len(fs)
	}
	level := 0.0
	for {
		// Next saturating link: minimal (cap - used)/unfrozen increment.
		best := math.Inf(1)
		for li, n := range fl.unfrozen {
			if n == 0 {
				continue
			}
			if inc := (fl.capacity[li] - fl.used[li]) / float64(n); inc < best {
				best = inc
			}
		}
		if math.IsInf(best, 1) {
			return // everything frozen
		}
		level += best
		for li, n := range fl.unfrozen {
			fl.used[li] += best * float64(n)
		}
		for li, fs := range fl.onLink {
			if fl.unfrozen[li] == 0 || fl.capacity[li]-fl.used[li] > 1e-12 {
				continue
			}
			for _, fi := range fs {
				if !math.IsInf(rates[fi], 1) {
					continue
				}
				rates[fi] = level
				for _, l2 := range flows[fi] {
					fl.unfrozen[l2]--
				}
			}
		}
	}
}

// MaxMinResult summarizes a static max-min allocation.
type MaxMinResult struct {
	// Lambda is min over commodities of rate/demand under max-min fair
	// sharing — directly comparable with mcf.Result.Lambda.
	Lambda float64
	// MeanLambda averages rate/demand over commodities.
	MeanLambda float64
	// Subflows is the number of (commodity, path) pairs allocated.
	Subflows int
}

// MaxMin computes max-min fair rates for the commodities, each split over
// every candidate path the scheme returns for its switch pair, and
// reports them as concurrent throughput. It complements the
// optimal-routing LP of internal/mcf: the paper's §2.6 proposes
// k-shortest-paths routing for the random-graph modes, and comparing the
// two λs quantifies how much of the optimal-routing throughput that
// practical scheme achieves. A commodity's rate is the sum over its paths;
// a same-switch commodity is unconstrained.
func MaxMin(nw *topo.Network, scheme routing.Scheme, commodities []mcf.Commodity) (MaxMinResult, error) {
	if len(commodities) == 0 {
		return MaxMinResult{Lambda: math.Inf(1), MeanLambda: math.Inf(1)}, nil
	}
	fl := newFluid(nw, scheme)
	var flows [][]int32
	var owner []int
	commRate := make([]float64, len(commodities))
	for ci, c := range commodities {
		if c.Demand <= 0 {
			return MaxMinResult{}, fmt.Errorf("dynsim: non-positive demand %g", c.Demand)
		}
		s, err := fl.hostOf(c.Src)
		if err != nil {
			return MaxMinResult{}, err
		}
		d, err := fl.hostOf(c.Dst)
		if err != nil {
			return MaxMinResult{}, err
		}
		if s == d {
			commRate[ci] = math.Inf(1)
			continue
		}
		paths, err := fl.pathsFor(s, d)
		if err != nil {
			return MaxMinResult{}, err
		}
		for _, links := range paths {
			flows = append(flows, links)
			owner = append(owner, ci)
		}
	}
	rates := make([]float64, len(flows))
	fl.fill(flows, rates)
	for fi, r := range rates {
		commRate[owner[fi]] += r
	}

	res := MaxMinResult{Lambda: math.Inf(1), Subflows: len(flows)}
	sum := 0.0
	for ci, c := range commodities {
		v := commRate[ci] / c.Demand
		if v < res.Lambda {
			res.Lambda = v
		}
		if !math.IsInf(v, 1) {
			sum += v
		}
	}
	res.MeanLambda = sum / float64(len(commodities))
	return res, nil
}
