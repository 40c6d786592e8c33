package main

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// simRound is one simulated commit: who was acked, who was folded.
type simRound struct {
	acked, unanswered []int
	// folded are the devices whose updates the commit holds; weightOf are
	// the devices whose weights it holds (normally the same).
	folded, weightOf []int
}

// simulate commits the rounds the way the program's fold does and returns
// what the benchmark's store and fleet would have recorded.
func simulate(t *testing.T, in *inputs, probes []int, rounds []simRound) ([]settlement, []outcome, tensor.Vector) {
	t.Helper()
	params := append(tensor.Vector(nil), in.global...)
	var settled []settlement
	var reports []outcome
	for r, sr := range rounds {
		from := len(settled)
		for _, d := range sr.acked {
			reports = append(reports, outcome{device: d, round: int64(r), from: from, acked: true})
		}
		for _, d := range sr.unanswered {
			reports = append(reports, outcome{device: d, round: int64(r), from: from})
		}
		var w float64
		for _, d := range sr.weightOf {
			w += in.weights[d]
		}
		sum := make(tensor.Vector, len(params))
		for _, d := range sr.folded {
			u, err := decodeUpdate(in.payloads[d], nil)
			if err != nil {
				t.Fatal(err)
			}
			sum.Axpy(1, u)
		}
		params.Axpy(1/w, sum)
		probe := make([]float64, len(probes))
		for k, j := range probes {
			probe[k] = params[j]
		}
		settled = append(settled, settlement{seq: from + 1, round: int64(r), committed: true, weight: w,
			probe: probe, traced: true,
			trace: obs.RoundTrace{Round: int64(r + 1), Committed: true, Reports: len(sr.folded)}})
	}
	return settled, reports, params
}

func testInputs(t *testing.T, secure bool) (*inputs, []int) {
	t.Helper()
	w := workload{name: "test", population: "test", k: 8, features: 255}
	if secure {
		w.secure, w.groupSize = true, 4
	}
	in, err := makeInputs(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	return in, probeCoords(len(in.global), 7)
}

func devices(from, to int) []int {
	var ds []int
	for d := from; d < to; d++ {
		ds = append(ds, d)
	}
	return ds
}

func checkSim(t *testing.T, secure bool, rounds []simRound) checkResult {
	t.Helper()
	in, probes := testInputs(t, secure)
	settled, reports, final := simulate(t, in, probes, rounds)
	return checkRun(in, secure, probes, settled, reports, final, int64(len(rounds)))
}

func TestCheckPassesFaithfulFold(t *testing.T) {
	all := devices(0, 8)
	rounds := []simRound{
		{acked: all, unanswered: []int{8, 9}, folded: all, weightOf: all},
		{acked: devices(2, 10), folded: devices(2, 10), weightOf: devices(2, 10)},
	}
	if res := checkSim(t, false, rounds); !res.ok() {
		t.Fatalf("faithful fold rejected: %v", res.problems)
	}
}

func TestCheckFailsWhenAggregateOmitsOneUpdate(t *testing.T) {
	all := devices(0, 8)
	// The program acked device 3 but its update never reached the
	// aggregate, while its weight and report count did.
	rounds := []simRound{
		{acked: all, folded: all, weightOf: all},
		{acked: all, folded: []int{0, 1, 2, 4, 5, 6, 7}, weightOf: all},
	}
	res := checkSim(t, false, rounds)
	if res.ok() {
		t.Fatal("check passed an aggregate that omits device 3's update")
	}
	if !strings.Contains(strings.Join(res.problems, "\n"), "round 1") {
		t.Fatalf("problem not attributed to round 1: %v", res.problems)
	}
}

func TestCheckFailsWhenAckedReportIsDropped(t *testing.T) {
	all := devices(0, 8)
	less := []int{0, 1, 2, 4, 5, 6, 7}
	rounds := []simRound{{acked: all, folded: less, weightOf: less}}
	if res := checkSim(t, false, rounds); res.ok() {
		t.Fatal("plaintext check passed a commit that dropped an acked report")
	}
}

func TestCheckResolvesUnansweredFold(t *testing.T) {
	acked := devices(0, 8)
	folded := append(devices(0, 8), 9)
	rounds := []simRound{{acked: acked, unanswered: []int{8, 9}, folded: folded, weightOf: folded}}
	res := checkSim(t, false, rounds)
	if !res.ok() || res.folded != 1 {
		t.Fatalf("want ok with 1 unanswered fold, got folded=%d problems=%v", res.folded, res.problems)
	}
}

func TestCheckResolvesFailedSecureGroup(t *testing.T) {
	// Devices 4 and 5 were acked, but their group fell below its
	// threshold, and device 9 was answered with an Abort yet folded.
	acked := devices(0, 9)
	kept := []int{0, 1, 2, 3, 6, 7, 8, 9}
	rounds := []simRound{{acked: acked, unanswered: []int{9}, folded: kept, weightOf: kept}}
	res := checkSim(t, true, rounds)
	if !res.ok() || res.dropped != 2 || res.folded != 1 {
		t.Fatalf("want ok with 2 dropped and 1 folded, got dropped=%d folded=%d problems=%v", res.dropped, res.folded, res.problems)
	}
}
