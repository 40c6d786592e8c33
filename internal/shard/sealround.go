package shard

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/fedavg"
	"repro/internal/flserver"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/remote"
	"repro/internal/transport"
)

// msgRoundDeadline fires when the round's report window plus SealGrace has
// passed; msgRoundGrace one SealGrace after stragglers were told to seal.
type msgRoundDeadline struct{}
type msgRoundGrace struct{}

// sealRound is the sharded deployment's per-round actor: a Master
// Aggregator whose Aggregators are the shards' EdgeRounds. The shards run
// the device-facing round; this actor re-sends the round's pre-framed
// configuration to shards that reconnect mid-round, folds each shard's
// sealed stripe into the round's accumulator as it arrives (the top of the
// aggregation tree: per-shard sums, never per-device updates), orders
// stragglers to seal at the deadline, and settles through the shared
// flserver.RoundSettler.
type sealRound struct {
	settle flserver.RoundSettler
	// enc is the round's RoundConfig, marshaled and framed once.
	enc       *transport.Encoded
	sealGrace time.Duration
	// pending holds the shard links that owe this round a seal.
	pending    map[*remote.Session]bool
	finalizing bool
	acc        *fedavg.Accumulator
	out        flserver.RoundOutcome
	// clippedTotal is the shard layer's cumulative clip counter.
	clippedTotal *atomic.Int64
}

func newSealRound(s flserver.RoundSettler, enc *transport.Encoded, sealGrace time.Duration, clippedTotal *atomic.Int64) *sealRound {
	return &sealRound{
		settle:       s,
		enc:          enc,
		sealGrace:    sealGrace,
		pending:      make(map[*remote.Session]bool),
		acc:          fedavg.NewAccumulator(len(s.Global.Params)),
		clippedTotal: clippedTotal,
		out: flserver.RoundOutcome{
			Start:   s.Now(),
			Metrics: make(map[string][]float64),
			Phases:  make(map[string]int64),
		},
	}
}

// send hands the round's configuration to one shard and, if its link took
// it, expects that shard's seal.
func (r *sealRound) send(sess *remote.Session) {
	if err := sess.Send(r.enc); err == nil {
		r.pending[sess] = true
	}
}

// Receive implements actor.Behavior.
func (r *sealRound) Receive(ctx *actor.Context, msg actor.Message) {
	switch m := msg.(type) {
	case msgShardUp:
		// A shard (re)connected mid-round: it starts a fresh edge round for
		// the same global round, and its seal is expected
		// (reconnect-then-resume).
		r.send(m.Sess)
	case msgShardDown:
		// The shard's devices (and its seal) are lost to this round —
		// Sec. 4.4: "only the devices connected to that actor will be
		// lost". The round settles with the remaining shards.
		r.drop(ctx, m.Sess)
	case msgShardAbort:
		// The shard refused the round (e.g. undecodable checkpoint). Its
		// seal will never come; drop it like a disconnect.
		if m.M.TaskID == r.settle.Plan.ID && m.M.Round == r.settle.Global.Round {
			r.drop(ctx, m.Sess)
		}
	case msgSeal:
		r.onSeal(ctx, m)
	case msgRoundDeadline:
		r.onDeadline(ctx)
	case msgRoundGrace:
		r.finish(ctx)
	}
}

func (r *sealRound) drop(ctx *actor.Context, sess *remote.Session) {
	if !r.pending[sess] {
		return
	}
	delete(r.pending, sess)
	if len(r.pending) == 0 {
		r.finish(ctx)
	}
}

// onDeadline fires when the round's report window (plus grace) has passed
// and stragglers still owe seals: order them to seal NOW, then settle after
// one more grace period regardless.
func (r *sealRound) onDeadline(ctx *actor.Context) {
	if r.finalizing {
		return
	}
	r.finalizing = true
	fin := protocol.RoundFinalize{Population: r.settle.Plan.Population, TaskID: r.settle.Plan.ID, Round: r.settle.Global.Round}
	for sess := range r.pending {
		if err := sess.Send(fin); err != nil {
			// The straggler's link is already dead (or its send queue is
			// wedged): it can never deliver a seal, so waiting the grace on
			// it would only stall the fleet. Settle without it.
			delete(r.pending, sess)
		}
	}
	if len(r.pending) == 0 {
		r.finish(ctx)
		return
	}
	self := ctx.Self
	time.AfterFunc(r.sealGrace, func() { _ = self.Send(msgRoundGrace{}) })
}

// onSeal folds one shard's sealed stripe into the round, once per shard
// link: late and duplicate seals are dropped.
func (r *sealRound) onSeal(ctx *actor.Context, m msgSeal) {
	seal := m.M
	if seal.TaskID != r.settle.Plan.ID || seal.Round != r.settle.Global.Round || !r.pending[m.Sess] {
		return
	}
	delete(r.pending, m.Sess)

	// Per-shard seal latency: round open → this shard's seal arriving.
	shardLabel := fmt.Sprint(seal.Shard)
	obs.Default.Summary(obs.Label("fl_shard_seal_seconds", "shard", shardLabel)).
		Observe(r.settle.Now().Sub(r.out.Start).Seconds())
	// The fleet-wide cost of a phase is its slowest shard's: max-merge.
	for phase, ns := range seal.Phases {
		if ns > r.out.Phases[phase] {
			r.out.Phases[phase] = ns
		}
	}
	if seal.Clipped > 0 {
		// Per-shard defense visibility on the coordinator's aggregated
		// /metrics, mirroring the seal counters.
		obs.Default.Counter(obs.Label("fl_robust_clipped_total", "shard", shardLabel)).Add(seal.Clipped)
		r.out.Clipped += int(seal.Clipped)
		r.clippedTotal.Add(seal.Clipped)
	}
	r.out.Lost += int(seal.Lost)
	for name, vs := range seal.Metrics {
		r.out.Metrics[name] = append(r.out.Metrics[name], vs...)
	}
	sum, err := fedavg.UnmarshalSum(seal.Sum)
	if err == nil && (r.settle.Plan.Type == plan.TaskEval ||
		r.acc.AddSealed(fedavg.SealedStripe{Sum: sum, Weight: seal.Weight, Count: int(seal.Reports)}) == nil) {
		r.out.Reports += int(seal.Reports + seal.EvalReports)
	} else {
		r.out.Lost += int(seal.Reports)
	}
	if len(r.pending) == 0 {
		r.finish(ctx)
	}
}

// finish settles the round with what arrived and stops the actor.
func (r *sealRound) finish(ctx *actor.Context) {
	r.out.Acc = r.acc
	r.settle.Settle(r.out)
	ctx.Stop()
}
