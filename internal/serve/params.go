package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"time"

	"flattree/internal/experiments"
)

// cellRequest is one parsed /v1/cell request: the result identity (spec +
// config) plus the execution knobs that must never reach the content
// address (timeout — it shapes when a solve stops, and approximate results
// are never cached, so admitting it into the key would only split identical
// cells across addresses).
type cellRequest struct {
	spec    experiments.CellSpec
	cfg     experiments.Config
	timeout time.Duration
}

// address is the canonical identity of a cell result. It is marshaled as
// JSON with a fixed field set — struct order makes the encoding canonical —
// and hashed to the store key. Every field either changes the bytes a cell
// prints or versions the code that prints them; execution knobs
// (parallelism, timeouts, solve budgets) are deliberately
// absent. Bump the "v" constant in newAddress when cell bytes change
// meaning without any field changing.
type address struct {
	Format     int     `json:"v"`
	Code       string  `json:"code"`
	Experiment string  `json:"experiment"`
	Column     string  `json:"column"`
	KMin       int     `json:"kmin"`
	KMax       int     `json:"kmax"`
	KStep      int     `json:"kstep"`
	Seed       uint64  `json:"seed"`
	Epsilon    float64 `json:"eps"`
	HybridK    int     `json:"hybridk"`
	Trials     int     `json:"trials"`
	K          int     `json:"k"`
	ProfileK   int     `json:"profilek"`
	FailFrac   float64 `json:"failfrac"`
	Batch      int     `json:"batch"`
	Load       float64 `json:"load"`
	SwitchFrac float64 `json:"switchfrac"`
	BurstPods  int     `json:"burstpods"`
	BurstFrac  float64 `json:"burstfrac"`
	ConvFrac   float64 `json:"convfrac"`
	Rate       float64 `json:"rate"`
	Horizon    float64 `json:"horizon"`
	Episodes   int     `json:"episodes"`
	WindowCost float64 `json:"windowcost"`
	SLO        float64 `json:"slo"`
}

// newAddress folds a request's identity into the canonical struct.
func newAddress(code string, req cellRequest) address {
	return address{
		Format:     1,
		Code:       code,
		Experiment: req.spec.Experiment,
		Column:     req.spec.Column,
		KMin:       req.cfg.KMin,
		KMax:       req.cfg.KMax,
		KStep:      req.cfg.KStep,
		Seed:       req.cfg.Seed,
		Epsilon:    req.cfg.Epsilon,
		HybridK:    req.cfg.HybridK,
		Trials:     req.cfg.Trials,
		K:          req.spec.K,
		ProfileK:   req.spec.ProfileK,
		FailFrac:   req.spec.FailFrac,
		Batch:      req.spec.Batch,
		Load:       req.spec.Load,
		SwitchFrac: req.spec.Scenario.SwitchFraction,
		BurstPods:  req.spec.Scenario.BurstPods,
		BurstFrac:  req.spec.Scenario.BurstLinkFraction,
		ConvFrac:   req.spec.Scenario.ConverterFraction,
		Rate:       req.spec.Soak.Rate,
		Horizon:    req.spec.Soak.Horizon,
		Episodes:   req.spec.Soak.MaxEpisodes,
		WindowCost: req.spec.Soak.WindowCost,
		SLO:        req.spec.Soak.SLOThreshold,
	}
}

// key hashes the canonical encoding to the 64-hex store key.
func (a address) key() (string, error) {
	b, err := json.Marshal(a)
	if err != nil {
		return "", fmt.Errorf("serve: encoding content address: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// cellParams enumerates every accepted /v1/cell query parameter; anything
// else is a 400 so client typos ("kMax", "epsilon") fail loudly instead of
// silently computing the default cell.
var cellParams = map[string]bool{
	"exp": true, "col": true,
	"kmin": true, "kmax": true, "kstep": true, "seed": true, "eps": true,
	"hybridk": true, "trials": true,
	"k": true, "profilek": true,
	"failfrac": true, "batch": true, "load": true,
	"switchfrac": true, "burstpods": true, "burstfrac": true, "convfrac": true,
	"rate": true, "horizon": true, "episodes": true, "windowcost": true, "slo": true,
	"timeout": true,
}

// parseCellRequest validates a /v1/cell query against defaults. Every
// error is a client error (http 400).
func parseCellRequest(defaults experiments.Config, q url.Values) (cellRequest, error) {
	var unknown []string
	for name := range q {
		if !cellParams[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return cellRequest{}, fmt.Errorf("unknown parameters %v", unknown)
	}

	req := cellRequest{cfg: defaults}
	var err error
	getInt := func(name string, dst *int, ok func(int) bool, domain string) {
		if err != nil || !q.Has(name) {
			return
		}
		v, convErr := strconv.Atoi(q.Get(name))
		if convErr != nil || !ok(v) {
			err = fmt.Errorf("%s=%q must be an integer %s", name, q.Get(name), domain)
			return
		}
		*dst = v
	}
	getFloat := func(name string, dst *float64, ok func(float64) bool, domain string) {
		if err != nil || !q.Has(name) {
			return
		}
		v, convErr := strconv.ParseFloat(q.Get(name), 64)
		if convErr != nil || !ok(v) {
			err = fmt.Errorf("%s=%q must be a number %s", name, q.Get(name), domain)
			return
		}
		*dst = v
	}

	req.spec.Experiment = q.Get("exp")
	if _, expErr := experiments.Columns(req.spec.Experiment); expErr != nil {
		return cellRequest{}, expErr
	}
	req.spec.Column = q.Get("col")

	any := func(int) bool { return true }
	pos := func(v int) bool { return v > 0 }
	nonNeg := func(v int) bool { return v >= 0 }
	frac01 := func(v float64) bool { return v >= 0 && v < 1 }
	getInt("kmin", &req.cfg.KMin, any, "")
	getInt("kmax", &req.cfg.KMax, any, "")
	getInt("kstep", &req.cfg.KStep, pos, "> 0")
	if err == nil && q.Has("seed") {
		v, convErr := strconv.ParseUint(q.Get("seed"), 10, 64)
		if convErr != nil {
			err = fmt.Errorf("seed=%q must be a uint64", q.Get("seed"))
		} else {
			req.cfg.Seed = v
		}
	}
	getFloat("eps", &req.cfg.Epsilon, func(v float64) bool { return v > 0 && v < 0.5 }, "in (0,0.5)")
	getInt("hybridk", &req.cfg.HybridK, pos, "> 0")
	getInt("trials", &req.cfg.Trials, pos, "> 0")
	getInt("k", &req.spec.K, func(v int) bool { return v >= 4 && v%2 == 0 }, ">= 4 and even")
	getInt("profilek", &req.spec.ProfileK, func(v int) bool { return v >= 4 && v%2 == 0 }, ">= 4 and even")
	getFloat("failfrac", &req.spec.FailFrac, func(v float64) bool { return v > 0 && v < 1 }, "in (0,1)")
	getInt("batch", &req.spec.Batch, pos, "> 0")
	getFloat("load", &req.spec.Load, func(v float64) bool { return v >= 0 }, ">= 0")
	getFloat("switchfrac", &req.spec.Scenario.SwitchFraction, frac01, "in [0,1)")
	getInt("burstpods", &req.spec.Scenario.BurstPods, nonNeg, ">= 0")
	getFloat("burstfrac", &req.spec.Scenario.BurstLinkFraction, frac01, "in [0,1)")
	getFloat("convfrac", &req.spec.Scenario.ConverterFraction, frac01, "in [0,1)")
	getFloat("rate", &req.spec.Soak.Rate, func(v float64) bool { return v > 0 }, "> 0")
	getFloat("horizon", &req.spec.Soak.Horizon, func(v float64) bool { return v > 0 }, "> 0")
	getInt("episodes", &req.spec.Soak.MaxEpisodes, nonNeg, ">= 0")
	getFloat("windowcost", &req.spec.Soak.WindowCost, func(v float64) bool { return v > 0 }, "> 0")
	getFloat("slo", &req.spec.Soak.SLOThreshold, func(v float64) bool { return v > 0 && v <= 1 }, "in (0,1]")
	if err == nil && q.Has("timeout") {
		d, convErr := time.ParseDuration(q.Get("timeout"))
		if convErr != nil || d < 0 {
			err = fmt.Errorf("timeout=%q must be a non-negative Go duration", q.Get("timeout"))
		} else {
			req.timeout = d
		}
	}
	if err != nil {
		return cellRequest{}, err
	}
	if req.cfg.KMin > req.cfg.KMax {
		return cellRequest{}, fmt.Errorf("kmin=%d > kmax=%d", req.cfg.KMin, req.cfg.KMax)
	}
	if req.spec.Column != "" {
		cols, _ := experiments.Columns(req.spec.Experiment)
		if cols != nil {
			found := false
			for _, c := range cols {
				found = found || c == req.spec.Column
			}
			if !found {
				return cellRequest{}, fmt.Errorf("exp=%s has no column %q (have %v)", req.spec.Experiment, req.spec.Column, cols)
			}
		}
	}
	return req, nil
}
