package flserver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// closeRound starts one round over n devices, hands it the held devices,
// and returns the raw update sum the round committed (or shipped).
type closeRound func(t *testing.T, sys *actor.System, held []heldDevice) tensor.Vector

// TestAckedIffFoldedUnderOverSelection: with over-selection the reporting
// window closes at the target while the surplus devices' reports are still
// in flight. Every configured device must get one answer that matches its
// fate: an ack exactly when its update is in the committed sum, and an
// Abort or a "window closed" rejection exactly when it is not. Device i
// reports the basis vector e_i with weight 1, so the committed sum shows
// which devices were folded. The claim is shared by every window close: a
// plaintext Master Aggregator round (stripe seal), a secure one (retention
// buffer, then secagg), and an EdgeRound (stripe seal shipped to the
// coordinator).
func TestAckedIffFoldedUnderOverSelection(t *testing.T) {
	cases := []struct {
		name           string
		rounds, target int
		close          closeRound
	}{
		{"plaintext", 300, 24, masterRound(24, false)},
		// Secure rounds cost a secagg run each: fewer, smaller rounds.
		{"secure", 150, 8, masterRound(8, true)},
		{"edge", 300, 24, edgeRound(24)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for r := 0; r < c.rounds; r++ {
				acked, folded := overSelectedRound(t, 3*c.target/2, c.close)
				for i := range acked {
					if acked[i] != folded[i] {
						t.Fatalf("round %d: device %d acked=%v but folded=%v", r, i, acked[i], folded[i])
					}
				}
			}
		})
	}
}

// masterRound closes rounds through a Master Aggregator. Secure rounds run
// one secagg group over every configured device, with a threshold every
// over-selected round meets, so each retained update reaches the sum.
func masterRound(target int, secure bool) closeRound {
	return func(t *testing.T, sys *actor.System, held []heldDevice) tensor.Vector {
		t.Helper()
		p, err := plan.Generate(plan.Config{
			TaskID: "claim/train", Population: "claim",
			Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
			StoreName: "claim", BatchSize: 10, Epochs: 1, LearningRate: 0.1,
			TargetDevices:           target,
			OverSelectFactor:        1.5,
			MinReportFraction:       0.8,
			SelectionTimeout:        time.Minute,
			ReportTimeout:           time.Minute,
			SecureAggregation:       secure,
			SecAggGroupSize:         len(held),
			SecAggThresholdFraction: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := p.Server.SelectTarget(); n != len(held) {
			t.Fatalf("plan selects %d devices, test holds %d", n, len(held))
		}
		global := &checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, len(held))}
		done := make(chan actor.Message, 1)
		coord := sys.Spawn("coord", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
			done <- msg
		}))
		ma := sys.Spawn("ma", NewMasterAggregator(p, global, storage.NewMem(), coord, nil, 0, nil))
		if err := ma.Send(msgDevices{Devices: held}); err != nil {
			t.Fatal(err)
		}
		select {
		case msg := <-done:
			complete, ok := msg.(msgRoundComplete)
			if !ok {
				t.Fatalf("round did not commit: %+v", msg)
			}
			if len(complete.GroupErrors) != 0 {
				t.Fatalf("secure group failed: %v", complete.GroupErrors)
			}
			// The global model is zero, so the committed model is the
			// average update; scale it back to the sum.
			sum := make(tensor.Vector, len(held))
			for i, v := range complete.Committed.Params {
				sum[i] = v * complete.Committed.Weight
			}
			return sum
		case <-time.After(30 * time.Second):
			t.Fatal("round never settled")
		}
		return nil
	}
}

// edgeRound closes rounds through an EdgeRound that ships its seal to an
// in-memory channel.
func edgeRound(target int) closeRound {
	return func(t *testing.T, sys *actor.System, held []heldDevice) tensor.Vector {
		t.Helper()
		seals := make(chan EdgeSeal, 1)
		round := StartEdgeRound(sys, "edge", EdgeRoundConfig{
			Population: "claim", TaskID: "claim/train", Round: 1, Dim: len(held),
			Target: target, Admit: len(held), ReportTimeout: time.Minute, Linger: 10 * time.Millisecond,
		}, nil, func(s EdgeSeal) { seals <- s })
		if err := round.Send(msgDevices{Devices: held}); err != nil {
			t.Fatal(err)
		}
		select {
		case s := <-seals:
			if s.Seal.Sum == nil {
				return make(tensor.Vector, len(held))
			}
			return s.Seal.Sum
		case <-time.After(30 * time.Second):
			t.Fatal("edge round never sealed")
		}
		return nil
	}
}

// overSelectedRound runs one round of n devices that all report at once,
// and returns per device whether it was acked and whether its update was
// folded into the commit.
func overSelectedRound(t *testing.T, n int, close closeRound) (acked, folded []bool) {
	t.Helper()
	sys := actor.NewSystem()
	defer sys.Shutdown()

	acked = make([]bool, n)
	held := make([]heldDevice, n)
	var devices sync.WaitGroup
	for i := range held {
		srv, dev := transport.Pipe()
		held[i] = heldDevice{ID: fmt.Sprintf("dev-%d", i), RuntimeVersion: 3, Conn: srv}
		u := &checkpoint.Checkpoint{TaskName: "claim/train", Weight: 1, Params: make(tensor.Vector, n)}
		u.Params[i] = 1
		b, err := u.Marshal(checkpoint.EncodingFloat64)
		if err != nil {
			t.Fatal(err)
		}
		devices.Add(1)
		go func(i int, dev transport.Conn) {
			defer devices.Done()
			defer dev.Close()
			if msg, err := dev.Recv(); err != nil {
				return
			} else if resp, ok := msg.(protocol.CheckinResponse); !ok || !resp.Accepted {
				return
			}
			_ = dev.Send(protocol.ReportRequest{DeviceID: held[i].ID, TaskID: "claim/train", Update: b})
			msg, _ := dev.Recv()
			resp, ok := msg.(protocol.ReportResponse)
			acked[i] = ok && resp.Accepted
		}(i, dev)
	}
	sum := close(t, sys, held)
	devices.Wait()
	folded = make([]bool, n)
	for i, v := range sum {
		folded[i] = v > 0.5
	}
	return acked, folded
}
