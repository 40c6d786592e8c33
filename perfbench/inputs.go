package main

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// inputs is everything a workload hands the program, generated from the
// seed: the plan, the device IDs, and each device's weight and pre-encoded
// update.
type inputs struct {
	plan     *plan.Plan
	ids      []string
	weights  []float64
	payloads [][]byte
	// global is the round-0 model the program starts from (the plan's
	// model spec, built as the program builds it).
	global tensor.Vector
}

// maxWeight bounds the per-device integer weights (local example counts).
// Integer weights keep Σ weights exact through secure aggregation's
// fixed-point field encoding.
const maxWeight = 8

func makeInputs(w workload, seed uint64) (*inputs, error) {
	p, err := plan.Generate(plan.Config{
		TaskID:     w.population + "/train",
		Population: w.population,
		Model:      nn.Spec{Kind: nn.KindLogistic, Features: w.features, Classes: classes, Seed: seed},
		StoreName:  w.population, BatchSize: 10, Epochs: 1, LearningRate: 0.1,
		TargetDevices:     w.k,
		SecureAggregation: w.secure,
		SecAggGroupSize:   w.groupSize,
		MinReportFraction: w.minReportFraction,
		SelectionTimeout:  roundTimeout,
		ReportTimeout:     roundTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	m, err := p.Device.Model.Build()
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	in := &inputs{plan: p, global: make(tensor.Vector, m.NumParams())}
	m.ReadParams(in.global)

	n := p.Server.SelectTarget()
	rng := tensor.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	used := make(map[string]bool, n)
	upd := &checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, len(in.global))}
	for len(in.ids) < n {
		id := fmt.Sprintf("dev-%016x", rng.Uint64())
		if used[id] {
			continue
		}
		used[id] = true
		weight := float64(1 + rng.Intn(maxWeight))
		// A weighted delta n·(w − w₀): uniform in ±weight.
		for j := range upd.Params {
			upd.Params[j] = weight * (2*rng.Float64() - 1)
		}
		upd.Weight = weight
		b, err := upd.Marshal(p.UplinkEncoding())
		if err != nil {
			return nil, fmt.Errorf("encode update: %w", err)
		}
		in.ids = append(in.ids, id)
		in.weights = append(in.weights, weight)
		in.payloads = append(in.payloads, b)
	}
	return in, nil
}

// roundTimeout is the plan's selection and report timeout. The closed loop
// fills a round in milliseconds; the timeout only bounds a stuck round.
const roundTimeout = 10 * time.Second
