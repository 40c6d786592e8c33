package flserver

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/fedavg"
	"repro/internal/robust"
	"repro/internal/secagg"
	"repro/internal/tensor"
)

// secaggGate bounds concurrent secagg finalizations process-wide: each run
// saturates the cores with its own worker pools, so admitting more than
// GOMAXPROCS at once only multiplies transient partial-vector memory
// (O(workers × dim) per run) without adding throughput.
var secaggGate = make(chan struct{}, runtime.GOMAXPROCS(0))

// secureParams is what every Secure Aggregation group of a round shares.
type secureParams struct {
	// dim is the model dimension; group inputs are delta‖weight, dim+1 long.
	dim int
	// threshold maps group size n to the Shamir threshold t; nil defaults
	// to the majority n/2 + 1.
	threshold func(n int) int
	// timeout is a window close's deadline for its group runs (see
	// collectGroups); 0 waits forever.
	timeout time.Duration
	// churn, when set (tests), injects additional mid-protocol churn into
	// group g's schedule on top of the real losses.
	churn func(g, n, t int) secagg.Schedule
}

// secureGroup is one group's share of a closed reporting window (Sec. 6):
// the delta‖weight inputs its devices delivered, in arrival order, and the
// ids of every device configured into the group.
type secureGroup struct {
	inputs   []robust.Update
	assigned []string
}

// groupSum is one secure group's outcome: the survivors' raw delta sum,
// weight and count, or an attributed error.
type groupSum struct {
	sum    tensor.Vector
	weight float64
	count  int
	err    string
	// blamed lists devices the run excluded with attribution
	// ("deviceID: reason"); populated on success and on abort.
	blamed []string
	// phases is the run's per-phase wall time (secagg.Result.Phases).
	phases map[string]time.Duration
}

// closeSecure is a secure round's window close: it drains the round's
// retention buffer, splits the delta‖weight inputs into the groups whose
// configured devices assigned lists (secagg.GroupSpans order), runs one
// secagg instance per group concurrently (collectGroups), and merges the
// group sums. A failed group costs its updates only: the round's metrics
// and eval counts never went through the secure path and are kept whole.
func closeSecure(p secureParams, buf *robust.Buffer, assigned [][]string) RoundOutcome {
	updates, evalCount, metrics := buf.Drain()
	groups := make([]secureGroup, len(assigned))
	byDevice := make(map[string]*secureGroup)
	for g, ids := range assigned {
		groups[g].assigned = ids
		for _, id := range ids {
			byDevice[id] = &groups[g]
		}
	}
	for _, u := range updates {
		// Only configured devices have readers, so every update has a group.
		if grp := byDevice[u.Device]; grp != nil {
			grp.inputs = append(grp.inputs, u)
		}
	}
	results := collectGroups(p, groups)

	out := RoundOutcome{Acc: fedavg.NewAccumulator(p.dim), Reports: evalCount, Metrics: metrics, Phases: make(map[string]int64)}
	for _, r := range results {
		if r.err != "" {
			out.GroupErrors = append(out.GroupErrors, r.err)
		}
		out.Blamed = append(out.Blamed, r.blamed...)
		// Groups run concurrently, so the round's secagg phase cost is the
		// slowest group's — max-merge, don't sum.
		for name, d := range r.phases {
			if key := "secagg_" + name; d.Nanoseconds() > out.Phases[key] {
				out.Phases[key] = d.Nanoseconds()
			}
		}
		if r.count > 0 {
			if err := out.Acc.AddRaw(r.sum, r.weight, r.count); err != nil {
				out.GroupErrors = append(out.GroupErrors, "merge: "+err.Error())
				continue
			}
			out.Reports += r.count
		}
	}
	return out
}

// collectGroups starts every group's secagg run on its own goroutine and
// collects the results under one deadline, p.timeout (waiting for a
// secaggGate slot included; 0 waits forever). A group still running at the
// deadline is abandoned with an attributed error instead of stalling the
// round; its run finishes into the buffered channel nobody reads any more.
func collectGroups(p secureParams, groups []secureGroup) []groupSum {
	type result struct {
		g   int
		sum groupSum
	}
	done := make(chan result, len(groups))
	for g := range groups {
		go func(g int) { done <- result{g, runSecureGroup(p, g, groups[g])} }(g)
	}
	var deadline <-chan time.Time
	if p.timeout > 0 {
		timer := time.NewTimer(p.timeout)
		defer timer.Stop()
		deadline = timer.C
	}
	// Until its run reports, a group's outcome is abandonment.
	results := make([]groupSum, len(groups))
	for g := range results {
		results[g] = groupSum{err: fmt.Sprintf("secagg: finalization exceeded %v; group abandoned", p.timeout)}
	}
	for range groups {
		select {
		case r := <-done:
			results[r.g] = r.sum
		case <-deadline:
			return results
		}
	}
	return results
}

// runSecureGroup runs Secure Aggregation over one group's inputs, so the
// group sum is produced without the aggregate code path ever handling an
// unmasked individual update. The instance is sized by the devices
// assigned to the group, not by what happened to arrive: a configured
// device that never delivered is a real protocol dropout. The inputs'
// pooled vectors are released once the protocol consumed them.
func runSecureGroup(p secureParams, g int, grp secureGroup) (out groupSum) {
	delivered := len(grp.inputs)
	if delivered == 0 {
		return groupSum{}
	}
	if delivered < 2 {
		// A singleton "group sum" IS the individual update, so a direct-sum
		// fallback would hand the server exactly what Secure Aggregation
		// exists to hide. Refuse and drop the update; secagg.GroupSpans
		// folds remainders into the last group so this cannot happen short
		// of a one-device round or churn.
		robust.Release(grp.inputs)
		return groupSum{err: fmt.Sprintf("secagg: group of %d below minimum 2; update dropped", delivered)}
	}
	// Participant ids 1..delivered are the delivered inputs in arrival
	// order; the assigned devices that never delivered follow. They enter
	// the churn schedule at the share-keys boundary (they checked in —
	// advertised — but never dealt shares, so they are excluded from the
	// mask set and their loss costs nothing at unmask time).
	names := make([]string, 0, len(grp.assigned)+delivered)
	got := make(map[string]bool, delivered)
	for _, u := range grp.inputs {
		names = append(names, u.Device)
		got[u.Device] = true
	}
	var lost []string
	for _, id := range grp.assigned {
		if !got[id] {
			lost = append(lost, id)
		}
	}
	names = append(names, lost...)
	n := len(names)
	t := n/2 + 1
	if p.threshold != nil {
		t = p.threshold(n)
	}
	if delivered < t {
		// Below-threshold churn: a clean, attributed abort — never a stall,
		// and never a degraded run that would weaken the privacy threshold.
		robust.Release(grp.inputs)
		return groupSum{err: fmt.Sprintf("secagg: only %d of %d group devices delivered (< threshold %d); lost: %s",
			delivered, n, t, strings.Join(lost, ", "))}
	}
	sched := secagg.Schedule{}
	if p.churn != nil {
		sched = p.churn(g, n, t)
	}
	inputs := make(map[int][]float64, n)
	for i, u := range grp.inputs {
		inputs[i+1] = u.Delta
	}
	for id := delivered + 1; id <= n; id++ {
		// A lost device's nil input is never read.
		inputs[id] = nil
		sched.DropShareKeys = append(sched.DropShareKeys, id)
	}
	cfg := secagg.Config{N: n, T: t, VectorLen: p.dim + 1}

	// Convert a protocol panic into a failed group so it costs the group,
	// not the process.
	defer func() {
		if r := recover(); r != nil {
			out = groupSum{err: fmt.Sprintf("secagg panic: %v", r)}
		}
	}()
	secaggGate <- struct{}{}
	defer func() { <-secaggGate }()
	res, err := secagg.RunSchedule(cfg, inputs, sched)
	// The protocol consumed the inputs (Encode copies them into field
	// elements); hand the vectors back so the next round's readers reuse
	// them instead of allocating O(group × dim).
	robust.Release(grp.inputs)
	if err != nil {
		out.err = err.Error()
	}
	if res != nil {
		out.phases = res.Phases
		for id, why := range res.Blamed {
			name := fmt.Sprintf("participant-%d", id)
			if id >= 1 && id <= n {
				name = names[id-1]
			}
			out.blamed = append(out.blamed, name+": "+why)
		}
		sort.Strings(out.blamed)
		if err == nil {
			out.sum, out.weight, out.count = tensor.Vector(res.Sum[:p.dim]), res.Sum[p.dim], len(res.Survivors)
		}
	}
	return out
}
