// Package dynsim is a fluid (flow-level) network simulator built on one
// progressive-filling max-min allocator, with two entry points.
//
// Simulate is event-driven: flows arrive over time, each is pinned to a
// path chosen from a routing.Scheme's candidates, active flows share
// switch-switch links max-min fairly, and the simulator advances from event
// to event (arrival or completion), re-solving rates at each one. It
// complements the static LP throughput of internal/mcf with the dynamic
// metric operators actually watch — flow completion time — and gives the
// §2.6 controller's "adaptive manner through network measurement" something
// concrete to measure: the adaptive example converts the topology when the
// measured FCT of the current mode falls behind.
//
// MaxMin is the static case: every commodity is split over all of its
// candidate paths at once, giving the max-min throughput of a practical
// routing scheme to set against the optimal-routing λ of internal/mcf.
package dynsim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"flattree/internal/graph"
	"flattree/internal/routing"
	"flattree/internal/topo"
)

// Arrival is one flow entering the system.
type Arrival struct {
	Time     float64
	Src, Dst int // server node IDs
	Size     float64
}

// FlowRecord is a completed flow.
type FlowRecord struct {
	Arrival
	Finish float64
}

// FCT returns the flow completion time.
func (f FlowRecord) FCT() float64 { return f.Finish - f.Time }

// Result summarizes a simulation run.
type Result struct {
	Completed []FlowRecord
	// MeanFCT, P99FCT summarize completion times.
	MeanFCT, P99FCT float64
	// Events is the number of simulation events processed.
	Events int
	// Unfinished counts flows still active when the arrival list was
	// exhausted and the drain limit hit.
	Unfinished int
}

type activeFlow struct {
	remaining float64
	links     []int32
	rate      float64
	arr       Arrival
}

// Simulate runs the fluid simulation of the given arrivals (they will be
// processed in time order) on the network under the routing scheme. Each
// flow is routed on the least-loaded (by active flow count) of its
// candidate paths at arrival — the practical KSP load-balancing §2.6
// implies. Switch-switch links have unit capacity; flows between servers on
// the same switch complete at infinite rate (uncapacitated access links,
// matching the rest of the repository).
//
// maxConcurrent bounds the number of simultaneously active flows as a
// safety valve against overload workloads that would never drain (0 means
// 4096); when it is hit, the simulation returns an error, which is a
// finding about the offered load rather than a simulator limit.
//
// Every error return carries the partial Result accumulated so far,
// finalized over the flows that did complete, with Unfinished counting the
// flows still active. Cancelling ctx aborts the event loop between events
// the same way, so a SIGINT mid-sweep still yields usable partial data.
func Simulate(ctx context.Context, nw *topo.Network, scheme routing.Scheme, arrivals []Arrival, maxConcurrent int) (Result, error) {
	if maxConcurrent <= 0 {
		maxConcurrent = 4096
	}
	sorted := append([]Arrival(nil), arrivals...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })

	fl := newFluid(nw, scheme)
	var (
		active []*activeFlow
		res    Result
		now    float64
		flows  [][]int32
		rates  []float64
	)

	// recompute assigns max-min fair rates to all active flows.
	recompute := func() {
		flows = flows[:0]
		for _, f := range active {
			flows = append(flows, f.links)
		}
		if cap(rates) < len(flows) {
			rates = make([]float64, len(flows))
		}
		rates = rates[:len(flows)]
		fl.fill(flows, rates)
		for i, f := range active {
			f.rate = rates[i]
		}
	}

	// advance progresses active flows to time t and completes any that
	// finish exactly at t.
	advance := func(t float64) {
		dt := t - now
		for _, f := range active {
			if math.IsInf(f.rate, 1) {
				f.remaining = 0
			} else if dt > 0 {
				f.remaining -= f.rate * dt
			}
		}
		now = t
		w := 0
		for _, f := range active {
			if f.remaining <= 1e-9 {
				res.Completed = append(res.Completed, FlowRecord{Arrival: f.arr, Finish: now})
				continue
			}
			active[w] = f
			w++
		}
		active = active[:w]
	}

	nextCompletion := func() float64 {
		t := math.Inf(1)
		for _, f := range active {
			if math.IsInf(f.rate, 1) {
				return now
			}
			if f.rate > 0 {
				if c := now + f.remaining/f.rate; c < t {
					t = c
				}
			}
		}
		return t
	}

	// run is the event loop; every exit, error or not, is finalized below.
	ai := 0
	run := func() error {
		for ai < len(sorted) || len(active) > 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("dynsim: %w with %d flows active", err, len(active))
			}
			res.Events++
			if res.Events > 200*len(sorted)+1000 {
				return fmt.Errorf("dynsim: event budget exhausted with %d flows active (offered load exceeds capacity?)", len(active))
			}
			tc := nextCompletion()
			if ai < len(sorted) && sorted[ai].Time <= tc {
				arr := sorted[ai]
				ai++
				advance(math.Max(arr.Time, now))
				s, err := fl.hostOf(arr.Src)
				if err != nil {
					return err
				}
				d, err := fl.hostOf(arr.Dst)
				if err != nil {
					return err
				}
				if s == d {
					// Same-switch flow: completes instantly at fluid scale.
					res.Completed = append(res.Completed, FlowRecord{Arrival: arr, Finish: now})
					continue
				}
				paths, err := fl.pathsFor(s, d)
				if err != nil {
					return err
				}
				// Least-loaded candidate by active flow count at the last
				// recompute.
				bestPath, bestLoad := 0, math.Inf(1)
				for pi, links := range paths {
					load := 0.0
					for _, li := range links {
						load += float64(len(fl.onLink[li]))
					}
					load /= float64(len(links))
					if load < bestLoad {
						bestLoad, bestPath = load, pi
					}
				}
				if len(active) >= maxConcurrent {
					return fmt.Errorf("dynsim: %d concurrent flows exceeds limit %d", len(active)+1, maxConcurrent)
				}
				active = append(active, &activeFlow{remaining: arr.Size, links: paths[bestPath], arr: arr})
				recompute()
				continue
			}
			if math.IsInf(tc, 1) {
				return nil
			}
			advance(tc)
			recompute()
		}
		return nil
	}

	err := run()
	if err != nil {
		res.Unfinished = len(active)
	}
	finalize(&res)
	return res, err
}

func finalize(res *Result) {
	if len(res.Completed) == 0 {
		return
	}
	fcts := make([]float64, len(res.Completed))
	sum := 0.0
	for i, f := range res.Completed {
		fcts[i] = f.FCT()
		sum += fcts[i]
	}
	sort.Float64s(fcts)
	res.MeanFCT = sum / float64(len(fcts))
	res.P99FCT = fcts[int(0.99*float64(len(fcts)-1))]
}

// PoissonHotspot generates count flows from a hot-spot server to uniformly
// random peers in the given server set, with exponential inter-arrivals at
// the given rate and fixed size.
func PoissonHotspot(servers []int, hotspot int, rate, size float64, count int, rng *graph.RNG) []Arrival {
	arr := make([]Arrival, 0, count)
	t := 0.0
	for i := 0; i < count; i++ {
		t += expInterval(rate, rng)
		dst := servers[rng.Intn(len(servers))]
		for dst == hotspot {
			dst = servers[rng.Intn(len(servers))]
		}
		arr = append(arr, Arrival{Time: t, Src: hotspot, Dst: dst, Size: size})
	}
	return arr
}

// PoissonPairs generates count flows between uniformly random server pairs.
func PoissonPairs(servers []int, rate, size float64, count int, rng *graph.RNG) []Arrival {
	arr := make([]Arrival, 0, count)
	t := 0.0
	for i := 0; i < count; i++ {
		t += expInterval(rate, rng)
		s := servers[rng.Intn(len(servers))]
		d := servers[rng.Intn(len(servers))]
		for d == s {
			d = servers[rng.Intn(len(servers))]
		}
		arr = append(arr, Arrival{Time: t, Src: s, Dst: d, Size: size})
	}
	return arr
}

func expInterval(rate float64, rng *graph.RNG) float64 {
	u := rng.Float64()
	for u == 0 { //flatlint:ignore floatcmp rejects the exact 0.0 Float64 can return, so Log is finite
		u = rng.Float64()
	}
	return -math.Log(u) / rate
}
