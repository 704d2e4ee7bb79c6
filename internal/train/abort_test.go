package train

import (
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/sim"
)

// startOn composes cfg and starts (without running) a job on it.
func startOn(t *testing.T, cfg cluster.Config, opts Options) (*sim.Env, *cluster.System, *Job) {
	t.Helper()
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := Start(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	return env, sys, job
}

func TestAbortMidRunWindsDownCleanly(t *testing.T) {
	opts := quickOpts(dlmodel.ResNet50Workload())
	// Full run first, to pick an abort instant in the middle.
	full := runOn(t, cluster.LocalGPUsConfig(), opts)

	env, sys, job := startOn(t, cluster.LocalGPUsConfig(), opts)
	baseHostMem := sys.Host.MemUtilization() // staging buffers are already pinned
	env.Schedule(full.TotalTime/2, func() { job.Abort() })
	if err := env.Run(); err != nil {
		t.Fatalf("aborted run did not wind down: %v", err)
	}
	if !job.Aborted() {
		t.Fatal("job not marked aborted")
	}
	if !job.Done().Fired() {
		t.Fatal("done signal never fired")
	}
	if _, err := job.Collect(); err == nil {
		t.Fatal("Collect on aborted job should error")
	}
	if got := job.EpochsDone(); got < 0 || got >= opts.Epochs {
		t.Fatalf("aborted halfway: epochs done = %d, want in [0,%d)", got, opts.Epochs)
	}
	// Wind-down must leave no residue: memory freed, flows drained.
	for _, g := range sys.GPUs {
		if g.Used() != 0 {
			t.Fatalf("%s still holds %v after abort", g.Name(), g.Used())
		}
	}
	if n := sys.Net.ActiveFlows(); n != 0 {
		t.Fatalf("%d flows still active after abort", n)
	}
	if got := sys.Host.MemUtilization(); got >= baseHostMem {
		t.Fatalf("host memory after abort (%v) not below start-of-run level (%v): staging leak", got, baseHostMem)
	}
}

func TestAbortIsDeterministic(t *testing.T) {
	opts := quickOpts(dlmodel.ResNet50Workload())
	full := runOn(t, cluster.LocalGPUsConfig(), opts)
	wind := func() (time.Duration, int) {
		env, _, job := startOn(t, cluster.LocalGPUsConfig(), opts)
		env.Schedule(full.TotalTime/3, func() { job.Abort() })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return job.e.finish, job.EpochsDone()
	}
	f1, e1 := wind()
	f2, e2 := wind()
	if f1 != f2 || e1 != e2 {
		t.Fatalf("aborted runs diverged: (%v,%d) vs (%v,%d)", f1, e1, f2, e2)
	}
}

func TestAbortPastFinalIterationCompletes(t *testing.T) {
	opts := quickOpts(dlmodel.ResNet50Workload())
	full := runOn(t, cluster.LocalGPUsConfig(), opts)
	env, _, job := startOn(t, cluster.LocalGPUsConfig(), opts)
	// Fire inside the last iteration: the abort loses the race and the
	// run completes normally.
	env.Schedule(full.TotalTime-time.Millisecond, func() { job.Abort() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if job.Aborted() {
		t.Fatal("abort past the final iteration should be a no-op")
	}
	if _, err := job.Collect(); err != nil {
		t.Fatalf("run should have completed: %v", err)
	}
}

func TestResumeChargesRestoreCost(t *testing.T) {
	opts := quickOpts(dlmodel.ResNet50Workload())
	opts.Epochs = 1
	fresh := runOn(t, cluster.LocalGPUsConfig(), opts)
	resumed := opts
	resumed.ResumeEpochs = 1
	res := runOn(t, cluster.LocalGPUsConfig(), resumed)
	if res.TotalTime <= fresh.TotalTime {
		t.Fatalf("resumed run (%v) not slower than fresh run (%v): restore cost missing",
			res.TotalTime, fresh.TotalTime)
	}
	if opts.Fingerprint() == resumed.Fingerprint() {
		t.Fatal("ResumeEpochs must be outcome-relevant in the fingerprint")
	}
}

func TestCheckpointsPerEpochOverride(t *testing.T) {
	count := func(per int) int {
		opts := quickOpts(dlmodel.ResNet50Workload())
		opts.CheckpointsPerEpoch = per
		ckpts := 0
		opts.Probe = func(event string, at time.Duration) {
			if event == ProbeCheckpoint {
				ckpts++
			}
		}
		runOn(t, cluster.LocalGPUsConfig(), opts)
		return ckpts
	}
	if got := count(4); got != 4*2 {
		t.Fatalf("override 4/epoch × 2 epochs: %d checkpoints, want 8", got)
	}
	if got := count(1); got != 2 {
		t.Fatalf("override 1/epoch × 2 epochs: %d checkpoints, want 2", got)
	}
}

// TestLifecycleTrackRecordsEvents checks the lifecycle marks a run
// reports through Options.Probe: one per epoch, at least one checkpoint,
// exactly one done.
func TestLifecycleTrackRecordsEvents(t *testing.T) {
	opts := quickOpts(dlmodel.ResNet50Workload())
	byKind := map[string]int{}
	opts.Probe = func(event string, at time.Duration) { byKind[event]++ }
	runOn(t, cluster.LocalGPUsConfig(), opts)
	if byKind[ProbeEpoch] != opts.Epochs {
		t.Errorf("probe saw %d epoch marks, want %d", byKind[ProbeEpoch], opts.Epochs)
	}
	if byKind[ProbeCheckpoint] == 0 || byKind[ProbeDone] != 1 {
		t.Errorf("probe missing checkpoint/done marks: %v", byKind)
	}
}
