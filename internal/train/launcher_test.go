package train

import (
	"testing"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/sim"
	"composable/internal/sim/simtest"
)

// relaunchSequence runs five attempts back to back through l on one host
// of a composed fleet: a full run on 8 GPUs, then twice a run on 4 of them
// that is aborted mid-way and its checkpoint restart — the orchestrator's
// kill-and-relaunch cycle, on a narrower group than the engine was built
// for. Each finished job is released before the next starts. It returns
// every completed attempt's result fingerprint.
func relaunchSequence(t *testing.T, env *sim.Env, l *Launcher) []string {
	t.Helper()
	fleet, err := cluster.ComposeFleet(env, cluster.FleetOptions{Hosts: 1, GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	host := fleet.Hosts[0]
	for _, s := range fleet.Slots {
		if err := fleet.AttachSlot(s, host); err != nil {
			t.Fatal(err)
		}
	}
	opts := quickOpts(dlmodel.ResNet50Workload())
	var out []string
	attempt := func(gpus int, opts Options, abortAfter sim.Time) *Job {
		job, err := l.Start(fleet.JobSystem(host, fleet.Slots[:gpus], "relaunch"), opts)
		if err != nil {
			t.Fatal(err)
		}
		if abortAfter > 0 {
			env.Schedule(env.Now()+abortAfter, job.Abort)
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if res, err := job.Collect(); err == nil {
			out = append(out, resultFingerprint(res))
		}
		return job
	}
	first := attempt(8, opts, 0)
	full := first.e.finish - first.e.start
	l.Release(first)
	// Twice: an attempt killed in its second epoch (at three quarters of
	// the first run's length), then its restart from the one
	// checkpointed epoch.
	for cycle := 0; cycle < 2; cycle++ {
		killed := attempt(4, opts, full*3/4)
		if !killed.Aborted() || killed.EpochsDone() != 1 {
			t.Fatalf("cycle %d: aborted %t after %d epochs, want aborted after 1", cycle, killed.Aborted(), killed.EpochsDone())
		}
		resume := opts
		resume.Epochs = opts.Epochs - killed.EpochsDone()
		resume.ResumeEpochs = killed.EpochsDone()
		l.Release(killed)
		l.Release(attempt(4, resume, 0))
	}
	return out
}

// TestLauncherRecyclesEngines runs the kill-and-relaunch sequence through
// one Launcher, whose later attempts take the first attempt's engine, and
// through launchers that recycle nothing: the event streams and results
// must be identical.
func TestLauncherRecyclesEngines(t *testing.T) {
	var fresh, recycled []string
	var l Launcher
	_, err := simtest.Compare(
		func(env *sim.Env) error {
			restore := UseFreshEngines()
			defer restore()
			fresh = relaunchSequence(t, env, new(Launcher))
			return nil
		},
		func(env *sim.Env) error {
			recycled = relaunchSequence(t, env, &l)
			return nil
		})
	if err != nil {
		t.Fatalf("fresh vs recycled engines: %v", err)
	}
	if len(fresh) != 3 || len(recycled) != 3 {
		t.Fatalf("completed attempts: fresh %d, recycled %d, want 3", len(fresh), len(recycled))
	}
	for i := range fresh {
		if fresh[i] != recycled[i] {
			t.Fatalf("attempt %d:\nfresh    %s\nrecycled %s", i, fresh[i], recycled[i])
		}
	}
	if len(l.free) != 1 {
		t.Fatalf("recycling launcher holds %d engines after five sequential attempts, want 1", len(l.free))
	}
}

// TestReleasedJobPanics pins the lifetime rule: once released, a job is
// dead — every call on it panics, even after its engine has moved on to
// the next job — while the Result it returned stays intact.
func TestReleasedJobPanics(t *testing.T) {
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cluster.LocalGPUsConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts(dlmodel.MobileNetV2Workload())
	var l Launcher
	run := func() (*Job, *Result) {
		job, err := l.Start(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		res, err := job.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return job, res
	}
	job, res := run()
	want := resultFingerprint(res)
	l.Release(job)
	next, _ := run()
	if next.e != job.e {
		t.Fatal("the second job did not take the released job's engine")
	}
	if got := resultFingerprint(res); got != want {
		t.Fatalf("released job's result changed when its engine ran again:\nbefore %s\nafter  %s", want, got)
	}
	calls := map[string]func(){
		"Done":         func() { job.Done() },
		"Abort":        job.Abort,
		"Aborted":      func() { job.Aborted() },
		"EpochsDone":   func() { job.EpochsDone() },
		"LastEpochEnd": func() { job.LastEpochEnd() },
		"Collect":      func() { _, _ = job.Collect() },
		"Release":      func() { l.Release(job) },
	}
	for name, call := range calls {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released job did not panic", name)
				}
			}()
			call()
		}()
	}
	if next.Aborted() || !next.Done().Fired() {
		t.Fatal("calls on the released job reached its engine's next job")
	}
}
