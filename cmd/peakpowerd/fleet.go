package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/jobstore"
	"repro/peakpower"
)

// plan resolves a validated analysis request into an ExplorePlan against
// the shared analyzers; extra options are appended after the request's
// own. It is the one request resolution: runAnalysis runs the plan
// in-process, and fleet coordinator and workers (via planFor) execute it,
// which is what guarantees every side agrees on the cache key, the
// journal tag and the exploration options for any given job spec.
func (s *server) plan(ctx context.Context, req *analyzeRequest, extra ...peakpower.Option) (*peakpower.ExplorePlan, error) {
	target := req.Target
	if target == "" {
		target = peakpower.DefaultTarget
	}
	an, err := s.analyzer(ctx, target)
	if err != nil {
		return nil, err
	}
	opts, err := buildOpts(req.Options)
	if err != nil {
		return nil, err
	}
	opts = append(opts, extra...)
	if req.Bench != "" {
		return an.PlanBench(req.Bench, opts...)
	}
	name := req.Name
	if name == "" {
		name = "app"
	}
	img, err := peakpower.Assemble(name, req.Source)
	if err != nil {
		return nil, err
	}
	return an.PlanImage(img, opts...), nil
}

// planFor is the fleet.PlanFunc both fleet roles run on: a job's
// journaled request body in, an executable plan out.
func (s *server) planFor(ctx context.Context, spec json.RawMessage) (*peakpower.ExplorePlan, error) {
	var req analyzeRequest
	if err := json.Unmarshal(spec, &req); err != nil {
		return nil, fmt.Errorf("decoding job spec: %w", err)
	}
	return s.plan(ctx, &req)
}

// runFleet distributes one durable job's exploration across the fleet,
// filling the job's checkpoint journal to completion. The subsequent
// runAnalysis call (with WithCheckpoint on the same path) seals the
// Report from that journal without exploring anything — byte-identical
// to a single-node run. Jobs whose sealed Report is already in the
// memory or disk cache skip the fleet entirely.
func (s *server) runFleet(ctx context.Context, req *analyzeRequest, j *jobstore.Job) error {
	ctx, cancel := s.withTimeout(ctx, req)
	defer cancel()
	plan, err := s.plan(ctx, req)
	if err != nil {
		return err
	}
	if s.cache.Peek(plan.Key()) {
		return nil
	}
	if err := s.fleet.RunJob(ctx, j.ID, j.Request, plan, s.jobs.store.CheckpointPath(j.ID)); err != nil {
		// Same wrap runAnalysis's engine errors get, so a fleet-failed job
		// reports the same error text (and statusFor classification) a
		// single-node failure would.
		return fmt.Errorf("peakpower: symbolic analysis of %s: %w", plan.App(), err)
	}
	return nil
}
