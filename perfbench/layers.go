package main

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/secagg"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// isoReps is how many times each isolated timing repeats; the median is
// reported.
const isoReps = 7

// isolated holds each layer's cost measured alone on the workload's own
// inputs, with the program stopped.
type isolated struct {
	foldUs, decodeUs  float64 // per update
	protocolDecodeUs  float64 // largest frame
	tcpFrameMs        float64 // largest frame, Send+Recv over loopback
	configureMs       float64
	secaggGroupMs     float64 // 0 without secure aggregation
	sealEncodeMs      float64
	sealMergeMs       float64
	largestFrameBytes int
}

// timeMedian runs f reps times and returns the median duration in ms.
func timeMedian(reps int, f func() error) (float64, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ds), nil
}

// largestFrame is the biggest message of a round: the configuration the
// program sends every selected device (single process) or every shard
// (sharded), carrying the plan and the float64 global model.
func largestFrame(w workload, in *inputs) (interface{}, error) {
	planBytes, err := in.plan.Marshal()
	if err != nil {
		return nil, err
	}
	global := &checkpoint.Checkpoint{TaskName: in.plan.ID, Params: in.global}
	ckpt, err := global.Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		return nil, err
	}
	if w.shards > 0 {
		return protocol.RoundConfig{Population: w.population, TaskID: in.plan.ID,
			Target: w.k / w.shards, Admit: in.plan.Server.SelectTarget() / w.shards,
			Plan: planBytes, Checkpoint: ckpt}, nil
	}
	return protocol.CheckinResponse{Accepted: true, TaskID: in.plan.ID, Plan: planBytes, Checkpoint: ckpt}, nil
}

func isolate(w workload, in *inputs) (isolated, error) {
	var iso isolated
	var err error
	dim := len(in.global)

	// Ingest: ParseMeta + AccumulateParams (fold) or + DecodeParams
	// (retention), over every payload of the fleet.
	sum := make(tensor.Vector, dim)
	perUpdate := func(decode bool) (float64, error) {
		ms, err := timeMedian(3, func() error {
			for _, b := range in.payloads {
				meta, err := checkpoint.ParseMeta(b)
				if err != nil {
					return err
				}
				if decode {
					err = meta.DecodeParams(b, sum)
				} else {
					err = meta.AccumulateParams(b, sum)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		return 1000 * ms / float64(len(in.payloads)), err
	}
	if iso.foldUs, err = perUpdate(false); err != nil {
		return iso, err
	}
	if iso.decodeUs, err = perUpdate(true); err != nil {
		return iso, err
	}

	// Configure: plan.Marshal + marshal of the global checkpoint.
	global := &checkpoint.Checkpoint{TaskName: in.plan.ID, Params: in.global}
	if iso.configureMs, err = timeMedian(isoReps, func() error {
		if _, err := in.plan.Marshal(); err != nil {
			return err
		}
		_, err := global.Marshal(checkpoint.EncodingFloat64)
		return err
	}); err != nil {
		return iso, err
	}

	// Protocol and TCP transport on the largest frame.
	frame, err := largestFrame(w, in)
	if err != nil {
		return iso, err
	}
	code, payload, ok := protocol.MarshalBinary(frame)
	if !ok {
		return iso, fmt.Errorf("largest frame %T has no binary codec", frame)
	}
	iso.largestFrameBytes = len(payload) + frameHeader
	decodeMs, err := timeMedian(isoReps, func() error {
		_, err := protocol.UnmarshalBinary(code, payload)
		return err
	})
	if err != nil {
		return iso, err
	}
	iso.protocolDecodeUs = 1000 * decodeMs
	if iso.tcpFrameMs, err = tcpFrame(frame); err != nil {
		return iso, err
	}

	// Seal: MarshalSum of a dim-sized partial, and the coordinator's
	// UnmarshalSum + Accumulator.AddSealed.
	partial := append(tensor.Vector(nil), in.global...)
	var sealed []byte
	if iso.sealEncodeMs, err = timeMedian(isoReps, func() error {
		sealed = fedavg.MarshalSum(partial)
		return nil
	}); err != nil {
		return iso, err
	}
	acc := fedavg.NewAccumulator(dim)
	if iso.sealMergeMs, err = timeMedian(isoReps, func() error {
		s, err := fedavg.UnmarshalSum(sealed)
		if err != nil {
			return err
		}
		return acc.AddSealed(fedavg.SealedStripe{Sum: s, Weight: 1, Count: 1})
	}); err != nil {
		return iso, err
	}

	if w.secure {
		if iso.secaggGroupMs, err = secaggGroup(w, in); err != nil {
			return iso, err
		}
	}
	return iso, nil
}

// tcpFrame times one Send+Recv of msg over a loopback ListenTCP/DialTCP
// pair.
func tcpFrame(msg interface{}) (float64, error) {
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	acceptErr := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		accepted <- c
	}()
	client, err := transport.DialTCP(l.Addr())
	if err != nil {
		return 0, err
	}
	defer client.Close()
	var server transport.Conn
	select {
	case server = <-accepted:
	case err := <-acceptErr:
		return 0, err
	}
	defer server.Close()
	return timeMedian(isoReps, func() error {
		sendErr := make(chan error, 1)
		go func() { sendErr <- client.Send(msg) }()
		if _, err := server.Recv(); err != nil {
			return err
		}
		return <-sendErr
	})
}

// secaggGroup times secagg.RunSchedule for one group of the workload's
// size on the first devices' decoded updates, VectorLen dim+1.
func secaggGroup(w workload, in *inputs) (float64, error) {
	n := w.groupSize
	dim := len(in.global)
	inputs := make(map[int][]float64, n)
	for i := 0; i < n; i++ {
		v, err := decodeUpdate(in.payloads[i], nil)
		if err != nil {
			return 0, err
		}
		inputs[i+1] = append(v, in.weights[i])
	}
	cfg := secagg.Config{N: n, T: in.plan.Server.SecAggThreshold(n), VectorLen: dim + 1}
	return timeMedian(3, func() error {
		_, err := secagg.RunSchedule(cfg, inputs, secagg.Schedule{})
		return err
	})
}

// perLayer derives the per-layer metrics of a traced run: the devices' own
// spans, the store and peer-link wrappers, the program's RoundTraces in the
// traced window, and the isolated timings. untraced is the same instance's
// untraced window, the base of the accounting ratios.
func perLayer(x *instance, untraced, traced window, spans []span, iso isolated) []metric {
	self := selfTimes(spans)
	var waits, acks, puts []float64
	var deviceSend, deviceSelf, peerSend float64
	for _, s := range spans {
		ms := float64(s.end.Sub(s.start).Nanoseconds()) / 1e6
		switch s.name {
		case "device.checkin":
			waits = append(waits, float64(self[s.id].Nanoseconds())/1e6)
		case "device.report":
			acks = append(acks, float64(self[s.id].Nanoseconds())/1e6)
		case "device.send":
			deviceSend += ms
		case "device.session":
			deviceSelf += float64(self[s.id].Nanoseconds()) / 1e6
		case "store.put":
			puts = append(puts, ms)
		case "peer.send":
			peerSend += ms
		}
	}

	c0, c1 := traced.from.counts, traced.to.counts
	checkins := float64(c1.checkins - c0.checkins)
	phases := make(map[string]float64)
	var phaseSum, total, reports float64
	for _, st := range traced.settled {
		if !st.committed || !st.traced {
			continue
		}
		for name, ns := range st.trace.Phases {
			phases[name] += float64(ns) / 1e6
			phaseSum += float64(ns)
		}
		total += float64(st.trace.TotalNanos)
		reports += float64(st.trace.Reports)
	}
	phase := func(name string) float64 { return traced.perRound(phases[name]) }
	updates := traced.perRound(reports)
	seals := traced.perRound(float64(traced.to.seals - traced.from.seals))

	// The peer-link wrappers count only while tracing.
	var bytesUp, bytesDown, bulkFrames float64
	if wr := x.top.wire; wr != nil {
		bytesUp, bytesDown = float64(wr.bytesUp.Load()), float64(wr.bytesDown.Load())
		bulkFrames = float64(wr.configs.Load() + wr.seals.Load())
	}
	putMs := median(puts)

	// Σ isolated cost × count per round, against the untraced CPU per round.
	explained := iso.configureMs + putMs
	if x.w.secure {
		groups := len(secagg.GroupSpans(x.in.plan.Server.SelectTarget(), x.w.groupSize))
		explained += updates*iso.decodeUs/1000 + float64(groups)*iso.secaggGroupMs
	} else {
		explained += updates * iso.foldUs / 1000
	}
	if x.w.shards > 0 {
		explained += traced.perRound(bulkFrames)*iso.tcpFrameMs + seals*(iso.sealEncodeMs+iso.sealMergeMs)
	}
	cpuPerRound := untraced.perRound(float64((untraced.to.cpu - untraced.from.cpu).Nanoseconds()) / 1e6)

	roundFail, reportFail := untraced.failRatios()

	return []metric{
		{"selector.checkins_per_round", traced.perRound(checkins), "count", fmt.Sprintf("%d rejected in the window", c1.rejected-c0.rejected), false},
		{"selector.accept_ratio", float64(c1.accepted-c0.accepted) / nonZero(checkins), "ratio", "", false},
		{"selector.wait_ms_p50", median(waits), "ms", fmt.Sprintf("n=%d accepted check-ins", len(waits)), false},
		{"transport.device_send_ms_per_round", traced.perRound(deviceSend), "ms", "", false},
		{"transport.peer_bytes_up_per_round", traced.perRound(bytesUp), "bytes", "", false},
		{"transport.peer_bytes_down_per_round", traced.perRound(bytesDown), "bytes", "", false},
		{"transport.peer_send_ms_per_round", traced.perRound(peerSend), "ms", "", false},
		{"transport.tcp_frame_ms", iso.tcpFrameMs, "ms", fmt.Sprintf("isolated, %d-byte frame", iso.largestFrameBytes), false},
		{"protocol.decode_us", iso.protocolDecodeUs, "us", "isolated UnmarshalBinary of the largest frame", false},
		{"checkpoint.fold_us_per_update", iso.foldUs, "us", "isolated ParseMeta+AccumulateParams", false},
		{"checkpoint.decode_us_per_update", iso.decodeUs, "us", "isolated ParseMeta+DecodeParams", false},
		{"ingest.ack_ms_p50", median(acks), "ms", fmt.Sprintf("n=%d reports", len(acks)), false},
		{"ingest.updates_per_round", updates, "count", "", false},
		{"configure.encode_ms", iso.configureMs, "ms", "isolated plan + global checkpoint marshal", false},
		{"secagg.group_ms", iso.secaggGroupMs, "ms", "isolated RunSchedule", false},
		{"phase.secagg_advertise_ms", phase(obs.PhaseSecaggAdvert), "ms", "", false},
		{"phase.secagg_share_ms", phase(obs.PhaseSecaggShare), "ms", "", false},
		{"phase.secagg_commit_ms", phase(obs.PhaseSecaggCommit), "ms", "", false},
		{"phase.secagg_unmask_ms", phase(obs.PhaseSecaggUnmask), "ms", "", false},
		{"seal.encode_ms", iso.sealEncodeMs, "ms", "isolated MarshalSum", false},
		{"seal.merge_ms", iso.sealMergeMs, "ms", "isolated UnmarshalSum+AddSealed", false},
		{"shard.seals_per_round", seals, "count", "", false},
		{"storage.put_ms_p50", putMs, "ms", fmt.Sprintf("n=%d", len(puts)), false},
		{"phase.checkin_ms", phase(obs.PhaseCheckin), "ms", "", false},
		{"phase.configure_ms", phase(obs.PhaseConfigure), "ms", "", false},
		{"phase.report_window_ms", phase(obs.PhaseReportWindow), "ms", "", false},
		{"phase.edge_accumulate_ms", phase(obs.PhaseEdgeAccumulate), "ms", "", false},
		{"phase.commit_ms", phase(obs.PhaseCommit), "ms", "", false},
		{"phase.coverage", phaseSum / nonZero(total), "ratio", "Σ phases ÷ total_ns", false},
		{"runtime.gc_ms_per_round", traced.perRound(1000 * (traced.to.gcCPU - traced.from.gcCPU)), "ms", "GC CPU", false},
		{"layers.explained_ratio", explained / nonZero(cpuPerRound), "ratio", fmt.Sprintf("%.3f of %.3f ms", explained, cpuPerRound), false},
		{"device.call_ms_per_round", traced.perRound(deviceSend + deviceSelf), "ms", "device sends + session self time", false},
		{"trace.overhead", 1 - float64(traced.commits)/traced.seconds()/nonZero(float64(untraced.commits)/untraced.seconds()), "ratio", "", false},
		{"round_fail_ratio", roundFail, "ratio", "untraced window", false},
		{"report_fail_ratio", reportFail, "ratio", "untraced window", false},
	}
}
