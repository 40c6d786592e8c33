package main

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/secagg"
)

// worstCaseSurvivors is the fewest reports a secure round of p can keep
// when only the over-selected surplus fails to deliver: at least K
// updates reach their groups, the other SelectTarget()−K devices are the
// only protocol dropouts, and a group left below its threshold t is
// dropped with up to t−1 delivered updates. It tries every set of groups
// the surplus can push below threshold together.
func worstCaseSurvivors(p *plan.Plan) int {
	n, k := p.Server.SelectTarget(), p.Server.TargetDevices
	spans := secagg.GroupSpans(n, p.Server.SecAggGroupSize)
	lost := 0
	for set := 1; set < 1<<len(spans); set++ {
		short, dropped := 0, 0
		for g, sp := range spans {
			if set&(1<<g) == 0 {
				continue
			}
			size := sp[1] - sp[0]
			t := p.Server.SecAggThreshold(size)
			short += size - (t - 1)
			dropped += t - 1
		}
		if short <= n-k && dropped > lost {
			lost = dropped
		}
	}
	return k - lost
}

// TestSecureWorkloadsCannotFailRounds: the benchmark's secure workloads
// keep their plan's over-selection, and their minimum report count lies
// at or below the worst case the aborted surplus can leave, so no round
// fails and two runs agree on the failed count.
func TestSecureWorkloadsCannotFailRounds(t *testing.T) {
	for _, w := range workloads {
		if !w.secure {
			continue
		}
		in, err := makeInputs(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := in.plan.Server
		if s.OverSelectFactor != 1.3 {
			t.Errorf("%s: over-selection %v, want the plan default 1.3", w.name, s.OverSelectFactor)
		}
		worst := worstCaseSurvivors(in.plan)
		if min := s.MinReports(); min > worst {
			t.Errorf("%s: a round can keep %d reports, below its minimum %d", w.name, worst, min)
		}
		t.Logf("%s: K=%d of %d devices, worst case %d survivors, minimum %d", w.name, s.TargetDevices, s.SelectTarget(), worst, s.MinReports())
	}
}
