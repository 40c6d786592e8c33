package shard

import (
	"strings"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/plan"
)

// TestRetentionPolicyAutoPausedInShardedMode: per-update robust policies
// (trimmed mean, median, cosine) need every individual update in one
// process, but shards ship merged sums. Like secure aggregation, such a
// task must be paused once with an operator-readable note instead of
// burning a failed round on every scheduling pass, and re-paused after an
// operator resume.
func TestRetentionPolicyAutoPausedInShardedMode(t *testing.T) {
	p, err := plan.Generate(plan.Config{
		TaskID: "pop/trimmed", Population: "pop",
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: 4,
		Robust:        plan.RobustPolicy{Kind: plan.RobustTrimmedMean, TrimFraction: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	cp := coordinatorWithShard(t, p)

	st := waitAutoPaused(t, cp, "pop/trimmed", 1)
	if !strings.Contains(st.Note, "robust") || !strings.Contains(st.Note, "norm_bound") {
		t.Fatalf("auto-pause note not operator-readable: %q", st.Note)
	}
	if err := cp.ResumeTask("pop/trimmed"); err != nil {
		t.Fatal(err)
	}
	st = waitAutoPaused(t, cp, "pop/trimmed", 2)
	if !strings.Contains(st.Note, "robust") {
		t.Fatalf("re-pause after resume lost its note: %+v", st)
	}
}

// TestShardedNormBoundRound drives the 3-shard deployment with a clip
// bound tight enough that real training updates exceed it: rounds must
// still commit, and the clip counts must survive the seal wire format to
// the coordinator's totals.
func TestShardedNormBoundRound(t *testing.T) {
	st, err := RunBenchSharded(BenchShardedConfig{
		Shards: 3, Devices: 12, TargetDevices: 6, Rounds: 2, Seed: 23,
		ClipNorm: 1e-4,
		Timeout:  time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds < 2 {
		t.Fatalf("committed %d rounds, want >= 2", st.Rounds)
	}
	// Every folded report was over the 1e-4 bound, so clips == folded
	// reports; each committed round folds at least MinReportFraction (0.5)
	// of the target's 6 reports.
	if st.Clipped < int64(2*3) {
		t.Fatalf("Clipped = %d, want >= 6 (every report over the bound)", st.Clipped)
	}
}
