package flserver

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/robust"
	"repro/internal/secagg"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// assignedNames builds an Assigned list: the prefix-numbered devices that
// delivered plus extra lost-device names.
func assignedNames(prefix string, delivered int, lost ...string) []string {
	out := make([]string, 0, delivered+len(lost))
	for i := 0; i < delivered; i++ {
		out = append(out, fmt.Sprintf("%s%d", prefix, i))
	}
	return append(out, lost...)
}

// feedSecureGroup retains count copies of u from devices prefix0..
// through a secure round's reader into buf.
func feedSecureGroup(t *testing.T, self actor.Ref, buf *robust.Buffer, prefix string, count int, u *checkpoint.Checkpoint, metrics map[string]float64) {
	t.Helper()
	rr := reportReader{self: self, dim: 2, buf: buf, withWeight: true}
	for _, id := range assignedNames(prefix, count) {
		if resp := report(t, rr, id, u, metrics); !resp.Accepted {
			t.Fatalf("%s rejected: %s", id, resp.Reason)
		}
	}
}

// average applies o's merged update to a zero model of dim 2.
func average(t *testing.T, o RoundOutcome) tensor.Vector {
	t.Helper()
	next := tensor.Vector{0, 0}
	if err := o.Acc.ApplyAverage(next); err != nil {
		t.Fatal(err)
	}
	return next
}

// churnedGroups closes a round of two secure groups under live churn: both
// groups carry a configured-but-lost device, group 0's dealer a1 poisons
// its shares, group 1's responder b0 forges its unmask reveal — all while
// the two secagg runs execute concurrently. Group 0's devices each report
// (1,2) and group 1's (3,4), all with weight 1, so the merged sum pins how
// many survivors each group contributed.
func churnedGroups(t *testing.T, self actor.Ref) RoundOutcome {
	t.Helper()
	buf := robust.NewBuffer(3)
	feedSecureGroup(t, self, buf, "a", 5, update(1, 1, 2), nil)
	feedSecureGroup(t, self, buf, "b", 5, update(1, 3, 4), nil)
	p := secureParams{dim: 2, churn: func(g, n, tt int) secagg.Schedule {
		if g == 0 {
			// Participant 2 (device a1) deals poisoned shares: excluded
			// before masking, blamed via holder complaints.
			return secagg.Schedule{PoisonShare: []int{2}}
		}
		// Participant 1 (device b0) forges its unmask response: rejected
		// at the commitment check, blamed, sum reconstructed from the rest.
		return secagg.Schedule{ForgeUnmask: []int{1}}
	}}
	// Each group was configured with 6 devices; the 6th never delivered
	// and enters the protocol as a real share-keys dropout.
	return closeSecure(p, buf, [][]string{assignedNames("a", 5, "a-lost"), assignedNames("b", 5, "b-lost")})
}

// TestTwoSecureGroupsFinalizeConcurrentlyUnderChurn extends the plain
// concurrent-finalization test with live churn. Run under -race (CI does).
// Both groups must still commit, with the misbehaving devices blamed by
// name.
func TestTwoSecureGroupsFinalizeConcurrentlyUnderChurn(t *testing.T) {
	sys := actor.NewSystem()
	self, _, _ := collectMaster(sys)
	defer sys.Shutdown(self)

	o := churnedGroups(t, self)
	if len(o.GroupErrors) != 0 {
		t.Fatalf("groups must commit under churn: %v", o.GroupErrors)
	}
	if len(o.Blamed) != 2 {
		t.Fatalf("want exactly one blamed device per group: %v", o.Blamed)
	}
	if !strings.HasPrefix(o.Blamed[0], "a1: ") || !strings.Contains(o.Blamed[0], "complaint") {
		t.Fatalf("poisoned dealer a1 not blamed via complaint: %v", o.Blamed)
	}
	if !strings.HasPrefix(o.Blamed[1], "b0: ") || !strings.Contains(o.Blamed[1], "forged") {
		t.Fatalf("forging responder b0 not blamed: %v", o.Blamed)
	}
	// Group A: 6 assigned, 1 lost, 1 poisoned-and-excluded → 4 survivors,
	// sum (4, 8). Group B: the forger's masked input was already in the
	// online sum — it survives as data even though its response was
	// rejected → 5 survivors, sum (15, 20). With weight 9, a first
	// coordinate of 19 = a + 3b admits only a = 4, b = 5 (a 5 + 4 split
	// would read 17).
	if o.Reports != 9 || o.Acc.Weight() != 9 {
		t.Fatalf("reports %d, weight %v; want 4 + 5 survivors", o.Reports, o.Acc.Weight())
	}
	if avg := average(t, o); math.Abs(avg[0]*9-19) > 1e-4 || math.Abs(avg[1]*9-28) > 1e-4 {
		t.Fatalf("sum %v, want group A (4, 8) + group B (15, 20) = (19, 28)", []float64{avg[0] * 9, avg[1] * 9})
	}
}

// TestSecureGroupLostDevicesBecomeDropouts: a configured device that never
// delivered shrinks the survivor set through the real dropout path (t-of-n
// reconstruction), not by silently resizing the instance.
func TestSecureGroupLostDevicesBecomeDropouts(t *testing.T) {
	sys := actor.NewSystem()
	self, _, _ := collectMaster(sys)
	defer sys.Shutdown(self)
	buf := robust.NewBuffer(3)
	feedSecureGroup(t, self, buf, "d", 4, update(1, 1, 2), nil)

	o := closeSecure(secureParams{dim: 2}, buf, [][]string{assignedNames("d", 4, "d-lost")})
	if len(o.GroupErrors) != 0 {
		t.Fatalf("group must commit: %v", o.GroupErrors)
	}
	if o.Reports != 4 || o.Acc.Weight() != 4 {
		t.Fatalf("reports %d, weight %v", o.Reports, o.Acc.Weight())
	}
	if avg := average(t, o); avg[0] != 1 || avg[1] != 2 {
		t.Fatalf("average %v, want (4, 8) / 4", avg)
	}
	if len(o.Blamed) != 0 {
		t.Fatalf("an honest dropout is lost, not blamed: %v", o.Blamed)
	}
}

// TestSecureGroupBelowThresholdAbortsWithMetrics: when too few assigned
// devices deliver, the group degrades to a clean abort that names the lost
// devices and still carries the delivered reports' metrics.
func TestSecureGroupBelowThresholdAbortsWithMetrics(t *testing.T) {
	sys := actor.NewSystem()
	self, _, _ := collectMaster(sys)
	defer sys.Shutdown(self)
	buf := robust.NewBuffer(3)
	feedSecureGroup(t, self, buf, "d", 3, update(1, 1, 2), map[string]float64{"train_loss": 0.5})

	// 8 assigned, 3 delivered: below the majority threshold 5.
	o := closeSecure(secureParams{dim: 2}, buf, [][]string{assignedNames("d", 3, "l1", "l2", "l3", "l4", "l5")})
	if len(o.GroupErrors) != 1 || !strings.Contains(o.GroupErrors[0], "3 of 8") || !strings.Contains(o.GroupErrors[0], "l5") {
		t.Fatalf("abort must attribute the lost devices: %v", o.GroupErrors)
	}
	if o.Reports != 0 || o.Acc.Count() != 0 {
		t.Fatalf("aborted group must not report a sum: reports %d", o.Reports)
	}
	if len(o.Metrics["train_loss"]) != 3 {
		t.Fatalf("metrics swallowed on abort: %+v", o.Metrics)
	}
}

// TestSecureThresholdFractionOverride: the plan's SecAggThresholdFraction
// reaches the groups through the Master Aggregator's threshold hook.
func TestSecureThresholdFractionOverride(t *testing.T) {
	sys := actor.NewSystem()
	self, _, _ := collectMaster(sys)
	defer sys.Shutdown(self)
	buf := robust.NewBuffer(3)
	feedSecureGroup(t, self, buf, "d", 4, update(1, 1, 2), nil)

	// Tolerate up to half the group: t = ⌈0.5 n⌉. 8 assigned, 4 delivered:
	// the majority default (5) would abort, the relaxed threshold (4)
	// commits through 4-of-8 reconstruction.
	pl := testPlan(t, 8, true)
	pl.Server.SecAggThresholdFraction = 0.5
	p := groupParams(pl.Server, 2)
	o := closeSecure(p, buf, [][]string{assignedNames("d", 4, "l1", "l2", "l3", "l4")})
	if len(o.GroupErrors) != 0 {
		t.Fatalf("relaxed threshold must commit: %v", o.GroupErrors)
	}
	if o.Reports != 4 || average(t, o)[0] != 1 {
		t.Fatalf("reports %d, average %v", o.Reports, average(t, o))
	}
}

// TestSecureFinalizeWatchdogUnstallsGroup: a secagg run that cannot make
// progress (here: wedged behind a saturated finalization gate) is
// abandoned by the group's watchdog with an attributed error — the round
// gets its outcome instead of hanging forever.
func TestSecureFinalizeWatchdogUnstallsGroup(t *testing.T) {
	slots := cap(secaggGate)
	for i := 0; i < slots; i++ {
		secaggGate <- struct{}{}
	}
	released := false
	release := func() {
		if !released {
			released = true
			for i := 0; i < slots; i++ {
				<-secaggGate
			}
		}
	}
	defer release()

	sys := actor.NewSystem()
	self, _, _ := collectMaster(sys)
	defer sys.Shutdown(self)
	buf := robust.NewBuffer(3)
	feedSecureGroup(t, self, buf, "d", 3, update(1, 1, 2), nil)

	o := closeSecure(secureParams{dim: 2, timeout: 100 * time.Millisecond}, buf, [][]string{assignedNames("d", 3)})
	if len(o.GroupErrors) != 1 || !strings.Contains(o.GroupErrors[0], "exceeded") {
		t.Fatalf("stalled finalization must time out with attribution: %v", o.GroupErrors)
	}
	if o.Acc.Count() != 0 {
		t.Fatalf("timed-out group must not report a sum: %d", o.Acc.Count())
	}
	// Unblock the wedged run; its late result lands in a channel nobody
	// reads any more.
	release()
	runtime.Gosched()
}

// TestRoundCompleteCarriesBlamedDevices: per-group blame survives the
// Master Aggregator's settle into the round completion record.
func TestRoundCompleteCarriesBlamedDevices(t *testing.T) {
	sys := actor.NewSystem()
	self, _, _ := collectMaster(sys)
	defer sys.Shutdown(self)
	o := churnedGroups(t, self)

	p := testPlan(t, 4, true)
	done, ok := settleThroughMaster(t, p, 2, storage.NewMem(), o).(msgRoundComplete)
	if !ok {
		t.Fatal("round did not complete")
	}
	if len(done.BlamedDevices) != 2 || !strings.HasPrefix(done.BlamedDevices[0], "a1: ") || !strings.HasPrefix(done.BlamedDevices[1], "b0: ") {
		t.Fatalf("blamed devices not carried: %+v", done.BlamedDevices)
	}
	if done.Completed != 9 || done.Committed == nil || done.Committed.Weight != 9 {
		t.Fatalf("completion record: %+v", done)
	}
}
