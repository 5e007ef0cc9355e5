package main

import (
	"encoding/json"
	"fmt"

	"synts/internal/core"
	"synts/internal/exp"
	"synts/internal/service"
	"synts/internal/trace"
)

// verifier recomputes solve answers in-process from the same public
// functions the daemon composes: exp.Platform per stage, the guard band
// (core.GuardPolicy.Check), core.EstimatedErrFunc and core.SolvePoly, with
// guard-rejected cores pinned to nominal as the daemon pins them.
type verifier struct {
	stages map[string]*core.Config
	guard  core.GuardPolicy
	memo   map[string]*expected // payload → answer, so repeats cost nothing
}

type expected struct {
	a         core.Assignment
	m         core.Metrics
	fallbacks []string
}

func newVerifier() *verifier {
	v := &verifier{stages: make(map[string]*core.Config), memo: make(map[string]*expected)}
	for _, st := range trace.Stages() {
		v.stages[st.String()] = exp.Platform(st, exp.DefaultOptions())
	}
	return v
}

// threads builds the solver input of a request, as the daemon does.
func (v *verifier) threads(r *service.SolveRequest) (*core.Config, []core.Thread, []string, error) {
	cfg := v.stages[r.Stage]
	if cfg == nil {
		return nil, nil, nil, fmt.Errorf("unknown stage %q", r.Stage)
	}
	ths := make([]core.Thread, len(r.Cores))
	fallbacks := make([]string, len(r.Cores))
	for i, cc := range r.Cores {
		if reason := v.guard.Check(cfg, cc.Rates); reason != "" {
			fallbacks[i] = reason
			ths[i] = core.Thread{N: cc.N, CPIBase: cc.CPIBase, Err: core.PessimalErr}
			continue
		}
		ths[i] = core.Thread{N: cc.N, CPIBase: cc.CPIBase, Err: core.EstimatedErrFunc(cfg, cc.Rates)}
	}
	return cfg, ths, fallbacks, nil
}

func (v *verifier) expect(r *service.SolveRequest) (*expected, error) {
	key, err := json.Marshal(struct {
		Stage string
		Theta float64
		Cores []service.CoreCurve
	}{r.Stage, r.Theta, r.Cores})
	if err != nil {
		return nil, err
	}
	if e, ok := v.memo[string(key)]; ok {
		return e, nil
	}
	cfg, ths, fallbacks, err := v.threads(r)
	if err != nil {
		return nil, err
	}
	a, _ := core.SolvePoly(cfg, ths, r.Theta)
	for i, reason := range fallbacks {
		if reason != "" {
			a.VIdx[i], a.RIdx[i] = 0, len(cfg.TSRs)-1
		}
	}
	e := &expected{a: a, m: cfg.Evaluate(ths, a, r.Theta), fallbacks: fallbacks}
	v.memo[string(key)] = e
	return e, nil
}

// check compares one 200 response with the recomputed answer: identity
// echo, per-core assignment and fallback, and the exact energy, time and
// cost (JSON round-trips float64 exactly).
func (v *verifier) check(reqBody, respBody []byte) error {
	var r service.SolveRequest
	if err := json.Unmarshal(reqBody, &r); err != nil {
		return fmt.Errorf("request: %w", err)
	}
	var got service.SolveResponse
	if err := json.Unmarshal(respBody, &got); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	if got.Schema != service.ResponseSchema || got.Tenant != r.Tenant || got.Seq != r.Seq ||
		got.Stage != r.Stage || got.Theta != r.Theta {
		return fmt.Errorf("response envelope %s/%s/%d/%s/%v does not echo request %s/%d/%s/%v",
			got.Schema, got.Tenant, got.Seq, got.Stage, got.Theta, r.Tenant, r.Seq, r.Stage, r.Theta)
	}
	want, err := v.expect(&r)
	if err != nil {
		return err
	}
	if len(got.Cores) != len(want.a.VIdx) {
		return fmt.Errorf("%d cores in response, want %d", len(got.Cores), len(want.a.VIdx))
	}
	for i, c := range got.Cores {
		if c.VIdx != want.a.VIdx[i] || c.RIdx != want.a.RIdx[i] || c.Fallback != want.fallbacks[i] {
			return fmt.Errorf("core %d: (v%d, r%d, %q), want (v%d, r%d, %q)",
				i, c.VIdx, c.RIdx, c.Fallback, want.a.VIdx[i], want.a.RIdx[i], want.fallbacks[i])
		}
	}
	if got.Cost != want.m.Cost || got.Energy != want.m.Energy || got.TExec != want.m.TExec {
		return fmt.Errorf("cost/energy/time %v/%v/%v, want %v/%v/%v",
			got.Cost, got.Energy, got.TExec, want.m.Cost, want.m.Energy, want.m.TExec)
	}
	return nil
}
