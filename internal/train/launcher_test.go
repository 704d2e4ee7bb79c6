package train

import (
	"fmt"
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
		job, err := l.Start(fleet.JobSystem(nil, host, fleet.Slots[:gpus], "relaunch"), opts)
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
// the next job — while the Result it returned keeps its scalars; its
// samples go with the sampler the launcher keeps.
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
	l.Release(job)
	if res.Samples != nil {
		t.Fatal("the released job's result still holds the sampler its launcher keeps")
	}
	want := resultFingerprint(res)
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

// relaunchAtFinish runs a chain of three jobs through l on one 4-GPU host
// view, each started at the instant its predecessor's Done fires, right
// after that predecessor is collected and released: the orchestrator's
// relaunch of a queued job onto slots a finished job has just freed. At
// each relaunch the released job's sampler still has its last tick
// pending. It returns the completed jobs' result fingerprints and how
// many relaunches met a pending sampler on l's free list.
func relaunchAtFinish(t *testing.T, env *sim.Env, l *Launcher) (out []string, pending int) {
	t.Helper()
	fleet, err := cluster.ComposeFleet(env, cluster.FleetOptions{Hosts: 1, GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	host, slots := fleet.Hosts[0], fleet.Slots
	for _, s := range slots {
		if err := fleet.AttachSlot(s, host); err != nil {
			t.Fatal(err)
		}
	}
	opts := quickOpts(dlmodel.MobileNetV2Workload())
	opts.Epochs, opts.ItersPerEpoch = 1, 3
	job, err := l.Start(fleet.JobSystem(nil, host, slots, "chain"), opts)
	if err != nil {
		t.Fatal(err)
	}
	env.Go("relauncher", func(p *sim.Proc) {
		for n := 0; ; n++ {
			job.Done().Wait(p)
			res, err := job.Collect()
			if err != nil {
				t.Error(err)
				return
			}
			sys := l.Release(job)
			out = append(out, resultFingerprint(res))
			if n == 2 {
				return
			}
			for _, tel := range l.samplers {
				if tel.smp.Pending() {
					pending++
					break
				}
			}
			if job, err = l.Start(fleet.JobSystem(sys, host, slots, "chain"), opts); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return out, pending
}

// TestRelaunchWhileSamplerTickPending runs the same-instant relaunch chain
// through one launcher and through launchers that keep nothing. The
// recycling launcher must pass over each released sampler whose last
// tick is still pending — started on the next job, that tick would step
// the new run, adding a sample and an event — so both must dispatch the
// same events and reach the same results.
func TestRelaunchWhileSamplerTickPending(t *testing.T) {
	var fresh, recycled []string
	var l Launcher
	pending := 0
	_, err := simtest.Compare(
		func(env *sim.Env) error {
			restore := UseFreshEngines()
			defer restore()
			fresh, _ = relaunchAtFinish(t, env, new(Launcher))
			return nil
		},
		func(env *sim.Env) error {
			recycled, pending = relaunchAtFinish(t, env, &l)
			return nil
		})
	if err != nil {
		t.Fatalf("fresh vs recycled samplers: %v", err)
	}
	if len(fresh) != 3 || fmt.Sprint(fresh) != fmt.Sprint(recycled) {
		t.Fatalf("results:\nfresh    %v\nrecycled %v", fresh, recycled)
	}
	if pending != 2 {
		t.Fatalf("%d of 2 relaunches met a sampler with its tick pending; the case went unchecked", pending)
	}
	if len(l.samplers) != 2 {
		t.Fatalf("recycling launcher holds %d samplers after the chain, want 2", len(l.samplers))
	}
}
