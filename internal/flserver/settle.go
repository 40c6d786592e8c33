package flserver

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// RoundSettler is what a per-round actor needs to end its round: the
// task's plan, the checkpoint the round served, the store it commits to
// and the Coordinator it reports to. Both per-round actors — the
// single-process MasterAggregator and the sharded deployment's seal
// collector — end through Settle or Fail, so the commit, the metrics
// write and the round trace have exactly one implementation.
type RoundSettler struct {
	Plan   *plan.Plan
	Global *checkpoint.Checkpoint
	Store  storage.Store
	Coord  actor.Ref
	Now    func() time.Time
}

// RoundOutcome is what a round gathered by the time it settles.
type RoundOutcome struct {
	// Start anchors the round trace.
	Start time.Time
	// Acc holds the merged model-update sum; eval rounds leave it unused.
	Acc *fedavg.Accumulator
	// Reports counts the reports that survived aggregation (updates plus
	// metrics-only reports).
	Reports int
	Metrics map[string][]float64
	Lost    int
	Aborted int
	// Phases holds the trace spans measured before the commit, in
	// nanoseconds; Settle adds obs.PhaseCommit.
	Phases map[string]int64
	// GroupErrors, Blamed and RobustRejected are operator attributions
	// forwarded to the Coordinator (see msgRoundComplete).
	GroupErrors    []string
	Blamed         []string
	RobustRejected []string
	Clipped        int
}

// Settle commits the round when enough reports survived: apply the merged
// sum's average to a copy of the served checkpoint, write that one
// checkpoint and the round's metrics, record the trace and report
// msgRoundComplete. Any shortfall or error fails the round instead (see
// Fail).
func (s RoundSettler) Settle(o RoundOutcome) {
	if min := s.Plan.Server.MinReports(); o.Reports < min {
		reason := fmt.Sprintf("only %d reports survived aggregation (< min %d)", o.Reports, min)
		if len(o.GroupErrors) > 0 {
			reason += "; group errors: " + strings.Join(o.GroupErrors, "; ")
		}
		s.Fail(o, reason)
		return
	}
	commitStart := s.Now()
	next := s.Global
	if s.Plan.Type != plan.TaskEval {
		next = s.Global.Clone()
		next.Round++
		next.Weight = o.Acc.Weight()
		if err := o.Acc.ApplyAverage(next.Params); err != nil {
			s.Fail(o, "apply: "+err.Error())
			return
		}
		// The single write to persistent storage for this round.
		if err := s.Store.PutCheckpoint(next); err != nil {
			s.Fail(o, "commit: "+err.Error())
			return
		}
	}
	mat := &metrics.Materialized{TaskName: s.Plan.ID, Round: next.Round, Stats: map[string]metrics.Snapshot{}}
	for name, vs := range o.Metrics {
		sum := metrics.NewSummary()
		for _, v := range vs {
			sum.Add(v)
		}
		mat.Stats[name] = sum.Snapshot()
	}
	_ = s.Store.PutMetrics(mat)
	if o.Phases == nil {
		o.Phases = make(map[string]int64, 1)
	}
	o.Phases[obs.PhaseCommit] = s.Now().Sub(commitStart).Nanoseconds()

	s.trace(o, true, next.Round, "")
	_ = s.Coord.Send(msgRoundComplete{
		TaskID:         s.Plan.ID,
		Round:          next.Round,
		Committed:      next,
		Completed:      o.Reports,
		Aborted:        o.Aborted,
		Lost:           o.Lost,
		GroupErrors:    o.GroupErrors,
		BlamedDevices:  o.Blamed,
		RobustRejected: o.RobustRejected,
		Clipped:        o.Clipped,
	})
}

// Fail records the round's trace as failed and reports msgRoundFailed; the
// Coordinator restarts the task (Sec. 4.4).
func (s RoundSettler) Fail(o RoundOutcome, reason string) {
	s.trace(o, false, s.Global.Round, reason)
	_ = s.Coord.Send(msgRoundFailed{TaskID: s.Plan.ID, Round: s.Global.Round, Reason: reason})
}

// trace materializes the round's phase trace through the process registry
// (fl_round_phase_seconds series, committed/failed counters) and persists
// one JSONL record when the store supports obs.TraceStore.
func (s RoundSettler) trace(o RoundOutcome, committed bool, round int64, failReason string) {
	phases := make(map[string]int64, len(o.Phases))
	for name, ns := range o.Phases {
		if ns > 0 {
			phases[name] = ns
		}
	}
	ts, _ := s.Store.(obs.TraceStore)
	_ = obs.Default.RecordTrace(obs.RoundTrace{
		Population: s.Plan.Population,
		TaskID:     s.Plan.ID,
		Round:      round,
		Start:      o.Start,
		TotalNanos: s.Now().Sub(o.Start).Nanoseconds(),
		Phases:     phases,
		Committed:  committed,
		Reports:    o.Reports,
		Lost:       o.Lost,
		Aborted:    o.Aborted,
		Blamed:     len(o.Blamed),
		FailReason: failReason,
	}, ts)
}
