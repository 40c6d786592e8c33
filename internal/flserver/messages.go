// Package flserver implements the FL server of Sec. 4: an actor-based
// architecture with Coordinators (one per FL population, registered in a
// shared locking service), Selectors (accept and forward device
// connections), and per-round Master Aggregators whose per-device
// aggregation work runs on report-reader goroutines at the edge. All round
// state lives in actor memory; only the fully aggregated result is
// committed to storage.
//
// The actors exchange the message types in this file. Device connections
// are transport.Conn streams; a goroutine per connection turns wire
// messages into actor messages.
package flserver

import (
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/tasks"
	"repro/internal/transport"
)

// heldDevice is an accepted device connection parked in a Selector, ready
// to be forwarded to a round.
type heldDevice struct {
	ID             string
	RuntimeVersion int
	Conn           transport.Conn
	// AcceptedAt is when the device checked in (for participation timing).
	AcceptedAt time.Time
}

// --- Selector messages ---

// msgCheckin is posted by a connection handler when a device checks in.
type msgCheckin struct {
	Req  protocol.CheckinRequest
	Conn transport.Conn
}

// msgSetQuota is the Coordinator's periodic instruction telling a Selector
// how many devices to accept for a population (Sec. 4.2).
type msgSetQuota struct {
	Population string
	// Accept is the number of additional devices the Selector may hold.
	Accept int
	// Round is the round the quota serves, from now on the population's
	// quota owner (nil: none).
	Round actor.Ref
}

// msgRevokeQuota zeroes the quota a round was granted once the round sealed
// or was abandoned, and cancels its forward stream. It applies only while
// Round still owns the population's quota: a revocation that a later
// round's grant overtook is stale and ignored.
type msgRevokeQuota struct {
	Population string
	Round      actor.Ref
}

// msgForwardDevices instructs a Selector to send up to N of a population's
// held devices to the given Master Aggregator.
type msgForwardDevices struct {
	Population string
	N          int
	To         actor.Ref
}

// msgQuotaTopUp replenishes a Selector's quota after an admitted device
// turned out not to count toward the round — a duplicate check-in of a
// device already configured, or a connection lost before its report. The
// round's effective admit count stays constant, so quota cannot be burned
// down below the seal target by completed devices checking in again while
// the window is still open.
type msgQuotaTopUp struct {
	Population string
	N          int
	// To streams the replacement devices (same contract as
	// msgForwardDevices.To).
	To actor.Ref
}

// msgRegisterPopulation adds a population to a Selector at runtime.
type msgRegisterPopulation struct {
	Pop SelectorPopulation
}

// msgDeregisterPopulation removes a population from a Selector: parked
// devices are steered away and later check-ins rejected as unknown.
type msgDeregisterPopulation struct {
	Name string
}

// msgReleaseParked tells a Selector to steer one population's parked
// devices away (with a reconnect hint) and stop accepting more. Sent by a
// Coordinator that has reached its round target: a device parked for a
// round that will never start must not sit on a half-open connection.
type msgReleaseParked struct {
	Population string
}

// msgRateProbe asks a Selector for one population's check-in arrivals since
// the last probe; the sample returns to To as msgCheckinRate. The
// single-process Coordinator probes on every scheduling pass and feeds the
// observed rates into the TaskSet's live population estimate (DESIGN.md
// §2a).
type msgRateProbe struct {
	Population string
	To         actor.Ref
}

// msgCheckinRate is one arrival sample for a population: Count check-ins
// observed over Elapsed by Source (a Selector, or a shard's Selector),
// while steering hints were computed for per-selector demand Demand. A
// Selector only emits a sample once its window is long enough to carry
// signal.
type msgCheckinRate struct {
	Source     string
	Population string
	Count      int64
	Elapsed    time.Duration
	Demand     int
}

// msgSelectorStats asks a Selector for its current counts; Population ""
// sums across every population the Selector serves.
type msgSelectorStats struct {
	Population string
	Reply      chan SelectorStats
}

// SelectorStats reports a Selector's connection counts and its quota
// ledger. The ledger is conserved: every quota slot a Coordinator grants is
// eventually consumed by an accepted device, revoked at seal/abandon/release,
// or still outstanding — QuotaGranted == QuotaConsumed + QuotaRevoked +
// QuotaOutstanding at every quiescent point. chaos.Verify asserts this after
// every fault scenario: a violation means a revoke/top-up cycle under churn
// double-counted or leaked a slot.
type SelectorStats struct {
	Held     int
	Accepted int64
	Rejected int64
	// UnknownPopulation counts check-ins rejected because no registered
	// population matched (only reported on the all-population totals).
	UnknownPopulation int64
	// Quota ledger (slots, cumulative).
	QuotaGranted     int64
	QuotaConsumed    int64
	QuotaRevoked     int64
	QuotaOutstanding int64
}

// Add folds another stats sample into s (summing across Selectors).
func (s *SelectorStats) Add(o SelectorStats) {
	s.Held += o.Held
	s.Accepted += o.Accepted
	s.Rejected += o.Rejected
	s.UnknownPopulation += o.UnknownPopulation
	s.QuotaGranted += o.QuotaGranted
	s.QuotaConsumed += o.QuotaConsumed
	s.QuotaRevoked += o.QuotaRevoked
	s.QuotaOutstanding += o.QuotaOutstanding
}

// QuotaConserved reports whether the quota ledger balances.
func (s SelectorStats) QuotaConserved() bool {
	return s.QuotaGranted == s.QuotaConsumed+s.QuotaRevoked+s.QuotaOutstanding
}

// --- Master Aggregator messages ---

// msgDevices delivers forwarded devices to a Master Aggregator.
type msgDevices struct {
	Devices []heldDevice
}

// msgSelectionTimeout fires when the selection window closes.
type msgSelectionTimeout struct{}

// msgReportTimeout fires when the reporting window closes.
type msgReportTimeout struct{}

// msgReportDone is the fixed-size outcome of one device's report, posted by
// its connection reader after the O(dim) work already happened at the edge
// (decode-and-accumulate into a stripe for plaintext rounds, decode into a
// pooled vector of the round's retention buffer otherwise). Only round accounting
// crosses the Master Aggregator's mailbox — never a parameter vector.
type msgReportDone struct {
	DeviceID string
	// OK is true when the report was folded in; false records a rejected
	// report (device abort, malformed or dimension-mismatched update).
	OK bool
}

// msgDeviceLost is posted when a device connection dies before reporting.
type msgDeviceLost struct {
	DeviceID string
}

// --- Coordinator messages ---

// msgRoundComplete reports a committed round to the Coordinator.
type msgRoundComplete struct {
	TaskID    string
	Round     int64
	Committed *checkpoint.Checkpoint
	Completed int
	Aborted   int
	Lost      int
	// GroupErrors lists per-group finalization failures in an otherwise
	// successful round (the failed groups' updates are simply absent).
	GroupErrors []string
	// BlamedDevices lists devices blamed by Secure Aggregation across the
	// round's groups, each as "deviceID: reason" — operator-visible
	// attribution for misbehaving (not merely lost) devices.
	BlamedDevices []string
	// RobustRejected lists devices the task's robust aggregation policy
	// rejected (cosine outliers, non-finite updates) or attributed as
	// dominating the trimmed tails, each as "deviceID: reason" — so
	// operators can tell defense hits from churn (BlamedDevices covers
	// secagg misbehavior, Lost covers churn).
	RobustRejected []string
	// Clipped counts updates whose norm the round's norm-bound policy
	// clipped at the edge.
	Clipped int
}

// msgRoundFailed reports an abandoned round.
type msgRoundFailed struct {
	TaskID string
	Round  int64
	Reason string
}

// msgSchedule asks the Coordinator for a scheduling pass.
type msgSchedule struct{}

// msgStopCoordinator tells a Coordinator to shut down cleanly: abandon any
// in-flight round, release the population lock, and stop without a failure
// (so watchers do not respawn it). Sent on population deregistration.
type msgStopCoordinator struct{}

// msgAbandonRound tells a Master Aggregator to fail its round immediately
// (e.g. the population was deregistered mid-round): device connections are
// closed and in-flight reports refused.
type msgAbandonRound struct {
	Reason string
}

// taskOp enumerates task lifecycle mutations.
type taskOp uint8

// Task lifecycle operations.
const (
	taskOpSubmit taskOp = iota + 1
	taskOpPause
	taskOpResume
	taskOpRetire
)

// msgTaskOp is one task lifecycle mutation (Sec. 7 model-engineer
// workflow), routed through the Coordinator's mailbox so it serializes
// with round scheduling: a task can never change state in the middle of a
// scheduling tick, and a retired task's in-flight round completes but is
// never rescheduled.
type msgTaskOp struct {
	Op     taskOp
	Plan   *plan.Plan   // submit
	Policy tasks.Policy // submit
	ID     string       // pause / resume / retire
	Reply  chan error
}

// msgTaskStats asks the Coordinator for its per-task lifecycle records.
type msgTaskStats struct {
	Reply chan []tasks.Stats
}

// msgCoordinatorStats asks for coordinator progress.
type msgCoordinatorStats struct {
	Reply chan CoordinatorStats
}

// CoordinatorStats reports rounds progress for a population.
type CoordinatorStats struct {
	RoundsCompleted int
	RoundsFailed    int
	CurrentRound    int64
}
