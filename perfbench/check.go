package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// A model of up to wholeProbes params is recorded whole at every commit;
// a larger one at sampledProbes coordinates. Either way the probes
// outnumber the devices a round's resolution may have to choose among.
const (
	wholeProbes   = 4096
	sampledProbes = 1024
)

// probeCoords picks the coordinates recorded from every commit: all of a
// small model, or sampledProbes distinct ones drawn from the seed.
func probeCoords(dim int, seed uint64) []int {
	if dim <= wholeProbes {
		idx := make([]int, dim)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	rng := tensor.NewRNG(seed ^ 0x5bd1e995)
	seen := make(map[int]bool, sampledProbes)
	idx := make([]int, 0, sampledProbes)
	for len(idx) < sampledProbes {
		if j := rng.Intn(dim); !seen[j] {
			seen[j] = true
			idx = append(idx, j)
		}
	}
	sort.Ints(idx)
	return idx
}

// checkResult is the outcome of comparing the program's committed models
// with a reference fold of the generated updates.
type checkResult struct {
	rounds  int // committed rounds verified
	maxDiff float64
	tol     float64
	// folded counts reports the program folded into a commit although the
	// device was answered with an Abort or not at all; dropped counts
	// acked reports a commit left out (a failed secure aggregation group),
	// in droppedRounds rounds.
	folded, dropped, droppedRounds int
	problems                       []string
}

func (c checkResult) ok() bool { return len(c.problems) == 0 }

// decodeUpdate dequantizes one pre-encoded update into dst (grown as
// needed), reading the checkpoint wire layout directly rather than through
// the program's decoder: u32 magic | u8 version | u8 encoding | u16 name
// length | name | i64 round | f64 weight | u32 n | params, where Quant8
// params are f64 lo | f64 hi | n bytes and Float64 params are n
// big-endian f64s.
func decodeUpdate(b []byte, dst tensor.Vector) (tensor.Vector, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("update of %d bytes", len(b))
	}
	enc := b[5]
	off := 8 + int(binary.BigEndian.Uint16(b[6:])) + 16
	if len(b) < off+4 {
		return nil, fmt.Errorf("truncated update header")
	}
	n := int(binary.BigEndian.Uint32(b[off:]))
	off += 4
	if cap(dst) < n {
		dst = make(tensor.Vector, n)
	}
	out := dst[:n]
	switch enc {
	case 1: // float64
		if len(b) < off+8*n {
			return nil, fmt.Errorf("truncated float64 update")
		}
		for i := range out {
			out[i] = math.Float64frombits(binary.BigEndian.Uint64(b[off+8*i:]))
		}
	case 2: // quant8
		if len(b) < off+16+n {
			return nil, fmt.Errorf("truncated quant8 update")
		}
		lo := math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
		hi := math.Float64frombits(binary.BigEndian.Uint64(b[off+8:]))
		step := (hi - lo) / 255
		for i := range out {
			out[i] = lo + float64(b[off+16+i])*step
		}
	default:
		return nil, fmt.Errorf("unknown update encoding %d", enc)
	}
	return out, nil
}

// checkRun verifies every round an instance committed, then its final
// model.
//
// Each report outcome is attributed to the attempt it served: the first
// settlement of its round after the device checked in. A committed round
// must carry exactly its acked reports: the trace's report count, the
// checkpoint's weight, and the model's change at the probe coordinates
// times that weight must equal the acked updates' sum there. Where they do
// not, the round is resolved exactly or fails: the program may also have
// folded reports it answered with an Abort (resolved over those devices),
// or left out acked reports of a failed secure group (resolved over the
// acked devices), by a least-squares fit at the probe coordinates that must
// round to a 0/1 choice matching count, weight and sum.
//
// The final model must then equal the initial one plus, for every
// committed round, its reports' update sum divided by its weight, at every
// coordinate. Updates are fixed per device, so the reference is
// global + Σ_i c_i·Δ_i with c_i = Σ over rounds including i of 1/W.
// Plaintext and sharded rounds match within float tolerance; secure rounds
// carry each input through a 2⁻²⁰ fixed-point field encoding, so their
// tolerance adds that rounding.
func checkRun(in *inputs, secure bool, probes []int, settled []settlement, reports []outcome, final tensor.Vector, finalRound int64) checkResult {
	var res checkResult
	fail := func(format string, args ...interface{}) {
		if len(res.problems) < 10 {
			res.problems = append(res.problems, fmt.Sprintf(format, args...))
		}
	}

	// q[d] is device d's decoded update at the probe coordinates.
	q := make([][]float64, len(in.ids))
	var buf tensor.Vector
	for d, b := range in.payloads {
		u, err := decodeUpdate(b, buf)
		if err != nil {
			fail("device %d: %v", d, err)
			return res
		}
		buf = u
		q[d] = make([]float64, len(probes))
		for k, j := range probes {
			q[d][k] = u[j]
		}
	}

	byRound := make(map[int64][]int) // round → settlement indexes, in seq order
	for i, st := range settled {
		byRound[st.round] = append(byRound[st.round], i)
	}
	acked := make(map[int][]int)   // settlement index → acked devices
	unknown := make(map[int][]int) // settlement index → unanswered devices
	for _, o := range reports {
		for _, i := range byRound[o.round] {
			if settled[i].seq > o.from {
				if o.acked {
					acked[i] = append(acked[i], o.device)
				} else {
					unknown[i] = append(unknown[i], o.device)
				}
				break
			}
		}
	}

	prev := make([]float64, len(probes))
	for k, j := range probes {
		prev[k] = in.global[j]
	}
	coef := make([]float64, len(in.ids))
	next := int64(0)
	for i, st := range settled {
		if !st.committed {
			continue
		}
		res.rounds++
		if st.round != next {
			fail("commit %d is round %d, want %d", res.rounds, st.round, next)
		}
		next = st.round + 1
		if !st.traced || len(st.probe) != len(probes) {
			fail("round %d: committed without a RoundTrace or with a model of the wrong size", st.round)
			continue
		}
		members, added, dropped, err := resolveRound(in, secure, q, st, prev, acked[i], unknown[i])
		prev = st.probe
		if err != nil {
			fail("round %d: %v", st.round, err)
			continue
		}
		res.folded += added
		res.dropped += dropped
		if dropped > 0 {
			res.droppedRounds++
		}
		if len(members) < in.plan.Server.MinReports() {
			fail("round %d: committed with %d reports (< min %d)", st.round, len(members), in.plan.Server.MinReports())
		}
		for _, d := range members {
			coef[d] += 1 / st.weight
		}
		if secure {
			res.tol += float64(len(members)) * math.Ldexp(1, -21) / st.weight
		}
	}
	if finalRound != next {
		fail("final checkpoint is round %d, %d commits were seen", finalRound, next)
	}

	ref := append(tensor.Vector(nil), in.global...)
	for d, c := range coef {
		if c == 0 {
			continue
		}
		u, err := decodeUpdate(in.payloads[d], buf)
		if err != nil {
			fail("device %d: %v", d, err)
			return res
		}
		ref.Axpy(c, u)
	}
	if len(final) != len(ref) {
		fail("final model has %d params, want %d", len(final), len(ref))
		return res
	}
	scale := 1.0
	for _, v := range ref {
		scale = math.Max(scale, math.Abs(v))
	}
	res.tol += 1e-12 * scale * float64(res.rounds+1) * float64(len(in.ids))
	for j, v := range final {
		res.maxDiff = math.Max(res.maxDiff, math.Abs(v-ref[j]))
	}
	if !(res.maxDiff <= res.tol) {
		fail("final model differs from the reference fold by %.3g (tolerance %.3g)", res.maxDiff, res.tol)
	}
	return res
}

// resolveRound returns the devices whose updates one commit folded, and how
// many of them were unanswered (added) or acked ones left out (dropped).
func resolveRound(in *inputs, secure bool, q [][]float64, st settlement, prev []float64, acked, unknown []int) (members []int, added, dropped int, err error) {
	m := len(st.probe)
	resid := make([]float64, m)
	tol := make([]float64, m)
	var w float64
	for k := range resid {
		resid[k] = (st.probe[k] - prev[k]) * st.weight
		tol[k] = 1 + st.weight*(math.Abs(st.probe[k])+math.Abs(prev[k]))
	}
	for _, d := range acked {
		w += in.weights[d]
		for k := range resid {
			resid[k] -= q[d][k]
		}
	}
	for _, d := range append(append([]int(nil), acked...), unknown...) {
		for k := range tol {
			tol[k] += math.Abs(q[d][k])
		}
	}
	for k := range tol {
		tol[k] *= 1e-9
		if secure {
			tol[k] += float64(len(acked)+len(unknown)) * math.Ldexp(1, -21)
		}
	}
	within := func(r []float64) bool {
		for k, v := range r {
			if !(math.Abs(v) <= tol[k]) {
				return false
			}
		}
		return true
	}
	if st.trace.Reports == len(acked) && w == st.weight && within(resid) {
		return acked, 0, 0, nil
	}

	// Resolve: the commit may also hold unanswered reports and, under
	// secure aggregation, may leave acked ones out. Column c of the fit is
	// sign[c]·q: +1 adds an unanswered device, −1 removes an acked one.
	cands := append([]int(nil), unknown...)
	var sign []float64
	for range unknown {
		sign = append(sign, 1)
	}
	if secure {
		cands = append(cands, acked...)
		for range acked {
			sign = append(sign, -1)
		}
	}
	if len(cands) == 0 || len(cands) > m || (!secure && st.trace.Reports <= len(acked)) {
		return nil, 0, 0, fmt.Errorf("%d reports, weight %g committed; %d acked weighing %g, %d unanswered: unresolvable",
			st.trace.Reports, st.weight, len(acked), w, len(unknown))
	}
	cols := make([][]float64, len(cands))
	for c, d := range cands {
		cols[c] = make([]float64, m)
		for k := range cols[c] {
			cols[c][k] = sign[c] * q[d][k]
		}
	}
	z := leastSquares(cols, resid)
	count, drop := len(acked), make(map[int]bool)
	var add []int
	for c, d := range cands {
		if z[c] <= 0.5 {
			continue
		}
		count += int(sign[c])
		w += sign[c] * in.weights[d]
		for k := range resid {
			resid[k] -= cols[c][k]
		}
		if sign[c] > 0 {
			add = append(add, d)
		} else {
			drop[d] = true
		}
	}
	if count != st.trace.Reports || w != st.weight || !within(resid) {
		return nil, 0, 0, fmt.Errorf("%d reports, weight %g committed; %d acked, %d unanswered: no choice of them matches",
			st.trace.Reports, st.weight, len(acked), len(unknown))
	}
	for _, d := range acked {
		if !drop[d] {
			members = append(members, d)
		}
	}
	return append(members, add...), len(add), len(drop), nil
}

// leastSquares solves min ‖Σ_c z_c·cols[c] − target‖ by the normal
// equations (Cholesky, with a tiny ridge for conditioning).
func leastSquares(cols [][]float64, target []float64) []float64 {
	n := len(cols)
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range cols {
		a[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			var s float64
			for k := range target {
				s += cols[i][k] * cols[j][k]
			}
			a[i][j], a[j][i] = s, s
		}
		for k := range target {
			b[i] += cols[i][k] * target[k]
		}
		a[i][i] *= 1 + 1e-12
	}
	// In-place Cholesky: a = L·Lᵀ.
	for j := 0; j < n; j++ {
		for k := 0; k < j; k++ {
			a[j][j] -= a[j][k] * a[j][k]
		}
		if a[j][j] <= 0 {
			return make([]float64, n)
		}
		a[j][j] = math.Sqrt(a[j][j])
		for i := j + 1; i < n; i++ {
			for k := 0; k < j; k++ {
				a[i][j] -= a[i][k] * a[j][k]
			}
			a[i][j] /= a[j][j]
		}
	}
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= a[i][k] * z[k]
		}
		z[i] = s / a[i][i]
	}
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for k := i + 1; k < n; k++ {
			s -= a[k][i] * z[k]
		}
		z[i] = s / a[i][i]
	}
	return z
}
