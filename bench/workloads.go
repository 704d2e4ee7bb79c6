package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/falcon"
	"composable/internal/faults"
	"composable/internal/gpu"
	"composable/internal/invariant"
	"composable/internal/obs"
	"composable/internal/orchestrator"
	"composable/internal/sim"
	"composable/internal/train"
)

// A workload is one generated input stream. Each loads a different layer
// of the simulator, so a change to one layer moves one workload and leaves
// the others as its control; BENCHMARK.json and README.md give each one's
// reason. The generators draw from -seed alone and share no code with
// scengen: a change to scengen cannot change what the benchmark measures.
type workload struct {
	name string
	gen  func(seed int64) scenario
}

var workloads = []workload{
	{"pod-burst", genPodBurst},
	{"pod-steady", genPodSteady},
	{"paper-train", genPaperTrain},
	{"chassis-faults", genChassisFaults},
}

func workloadByName(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s, or all)", name, strings.Join(names, ", "))
}

// scenario is one generated input. Every run composes a fresh system and
// simulates it to completion, so runs of one scenario are independent and,
// the simulator being deterministic, produce the same digest.
type scenario interface {
	run(a attach) (outcome, error)
}

// attach selects what a run instruments. The zero value attaches nothing;
// that is how the timed pass runs.
type attach struct {
	spans *spanLog // traced pass: benchmark-owned host-time spans
	obs   bool     // obs pass: an obs.Collector on every layer
	check bool     // check pass: the in-run invariant probes
}

// outcome is what one run produced.
type outcome struct {
	digest  [sha256.Size]byte
	simTime time.Duration // simulated time the run covered
	events  uint64        // sim events dispatched
	iters   int           // training iterations completed
	fleet   *orchestrator.FleetResult
	cols    []*obs.Collector // obs pass only
	invErr  error            // check pass only: invariant violations
}

// fleetModels is the model mix of the fleet workloads.
var fleetModels = [...]string{"ResNet-50", "BERT", "MobileNetV2"}

// podFleet is 8 pods × 8 chassis × 16 GPUs (1024 GPUs, 128 hosts) behind a
// 4:1 oversubscribed spine. Its fabric is large enough that routes go to
// the map cache.
var podFleet = cluster.FleetOptions{Hosts: 2, GPUs: 16, Pods: 8, ChassisPerPod: 8, Oversubscription: 4}

// chassisFleet is fleetsim's default testbed: one chassis, 3 hosts, 16 GPUs.
var chassisFleet = cluster.FleetOptions{Hosts: 3, GPUs: 16}

// Each workload salts the seed, so one -seed gives unrelated streams.
const (
	saltPodBurst      = 0x6275727374
	saltPodSteady     = 0x737465616479
	saltPaperTrain    = 0x7061706572
	saltChassisFaults = 0x6661756c7473
)

// The generators fix each stream's composition (job sizes, models,
// lengths) and let the seed choose order, tenants, arrival instants and
// fault draws. Cost then varies little from seed to seed, so the run-to-run
// spread the benchmark reports is host noise, not input noise.

// genPodBurst: 128 one-iteration jobs of 2, 4 or 6 GPUs, one in 50 of 20
// GPUs that must span chassis, arriving 25 ms apart on average.
func genPodBurst(seed int64) scenario {
	rng := rand.New(rand.NewSource(seed ^ saltPodBurst))
	jobs := make([]orchestrator.JobSpec, 128)
	for i := range jobs {
		gpus := 2 + 2*(i%3)
		if i%50 == 0 {
			gpus = 20
		}
		jobs[i] = orchestrator.JobSpec{GPUs: gpus, Workload: fleetModels[i%3], Epochs: 1, ItersPerEpoch: 1}
	}
	streamFromSeed(rng, jobs, 25*time.Millisecond, podFleet.Hosts*podFleet.Pods*podFleet.ChassisPerPod)
	return &fleetScenario{fleet: podFleet, jobs: jobs}
}

// genPodSteady: 16 jobs of 4, 8, 12 or 16 GPUs and 2 epochs × 4
// iterations, arriving 10 ms apart on average, so they overlap and every
// iteration repeats its ring.
func genPodSteady(seed int64) scenario {
	rng := rand.New(rand.NewSource(seed ^ saltPodSteady))
	jobs := make([]orchestrator.JobSpec, 16)
	for i := range jobs {
		jobs[i] = orchestrator.JobSpec{GPUs: 4 + 4*(i%4), Workload: fleetModels[i%3], Epochs: 2, ItersPerEpoch: 4}
	}
	streamFromSeed(rng, jobs, 10*time.Millisecond, podFleet.Hosts*podFleet.Pods*podFleet.ChassisPerPod)
	return &fleetScenario{fleet: podFleet, jobs: jobs}
}

// genChassisFaults: 150 jobs of 2-8 GPUs and 1-2 epochs × 1-3 iterations,
// arriving 2 s apart on average, under a 4 s MTBF fault plan over the
// arrival horizon with at most 4 permanent GPU failures.
func genChassisFaults(seed int64) scenario {
	rng := rand.New(rand.NewSource(seed ^ saltChassisFaults))
	const gap = 2 * time.Second
	jobs := make([]orchestrator.JobSpec, 150)
	for i := range jobs {
		jobs[i] = orchestrator.JobSpec{
			GPUs: 2 + i%7, Workload: fleetModels[i%3], Epochs: 1 + i%2, ItersPerEpoch: 1 + i%3,
		}
	}
	streamFromSeed(rng, jobs, gap, chassisFleet.Hosts)
	plan := faults.PlanMTBF(rng.Int63(), 4*time.Second, faults.Bounds{
		Slots:            chassisFleet.GPUs,
		SlotsPerDrawer:   falcon.SlotsPerDrawer,
		Hosts:            chassisFleet.Hosts,
		Horizon:          time.Duration(len(jobs)) * gap,
		MaxPermanentGPUs: 4,
	})
	return &fleetScenario{fleet: chassisFleet, jobs: jobs, plan: &plan}
}

// streamFromSeed shuffles the jobs, gives each a random tenant, and spreads
// the arrivals uniformly at random over [0, n×gap): a Poisson stream
// conditioned on its count, so the mean gap is exactly gap at every seed.
func streamFromSeed(rng *rand.Rand, jobs []orchestrator.JobSpec, gap time.Duration, tenants int) {
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	at := make([]time.Duration, len(jobs))
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(len(jobs)) * int64(gap)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	for i := range jobs {
		jobs[i].Arrival = at[i]
		jobs[i].Tenant = rng.Intn(tenants)
	}
}

// genPaperTrain: every Table III config trains every Table II model with
// DDP and FP16 for one epoch. Iteration counts 12-16 form a Latin square
// over (config, model) drawn from the seed: each config and each model
// sees every count once, so the total work barely changes from seed to
// seed. At 12-16 iterations a scenario takes about as long as the other
// workloads' do.
func genPaperTrain(seed int64) scenario {
	rng := rand.New(rand.NewSource(seed ^ saltPaperTrain))
	cfgs := cluster.TableIIIConfigs()
	models := dlmodel.Benchmarks()
	rowShift, colShift := rng.Perm(len(cfgs)), rng.Perm(len(models))
	s := &trainScenario{}
	for c, cfg := range cfgs {
		for m, w := range models {
			s.cells = append(s.cells, trainCell{cfg: cfg, opts: train.Options{
				Workload:      w,
				Precision:     gpu.FP16,
				Strategy:      train.DDP,
				Epochs:        1,
				ItersPerEpoch: 12 + (rowShift[c]+colShift[m])%5,
			}})
		}
	}
	return s
}

// fleetScenario is one orchestrator run: compose the fleet, drive the job
// stream through the drawer-local policy (with the fault plan armed, if
// any), and fingerprint the fleet result.
type fleetScenario struct {
	fleet cluster.FleetOptions
	jobs  []orchestrator.JobSpec
	plan  *faults.Plan
}

func (s *fleetScenario) run(a attach) (outcome, error) {
	env := sim.NewEnv()
	var col *obs.Collector
	if a.obs {
		col = obs.NewCollector()
		col.Attach(env)
	}
	sp := a.spans.begin("compose")
	f, err := cluster.ComposeFleet(env, s.fleet)
	a.spans.end(sp)
	if err != nil {
		return outcome{}, fmt.Errorf("compose fleet: %w", err)
	}
	f.AttachObs(col)
	opts := orchestrator.Options{Policy: orchestrator.DrawerLocal{}, Faults: s.plan, Obs: col}
	if a.spans != nil {
		opts.Policy = tracedPolicy{Policy: opts.Policy, log: a.spans}
	}
	var inv *invariant.Set
	if a.check {
		inv = invariant.New()
		inv.WatchEnv(env)
		inv.WatchNetwork(f.Net)
		inv.WatchFleet(f)
		opts.Probe = inv.OrchestratorProbe()
	}
	sp = a.spans.begin("run")
	res, err := orchestrator.Run(f, s.jobs, opts)
	a.spans.end(sp)
	if err != nil {
		return outcome{}, err
	}
	sp = a.spans.begin("fingerprint")
	out := outcome{digest: sha256.Sum256([]byte(res.Fingerprint())), simTime: res.Makespan, events: env.EventCount(), fleet: res}
	a.spans.end(sp)
	for _, j := range res.Jobs {
		if j.Train != nil {
			out.iters += j.Train.Iters
		}
	}
	if col != nil {
		out.cols = []*obs.Collector{col}
	}
	if inv != nil {
		inv.CheckFleetResult(f, res)
		out.invErr = inv.Err()
	}
	return out, nil
}

// tracedPolicy records a span around every placement decision.
type tracedPolicy struct {
	orchestrator.Policy
	log *spanLog
}

func (p tracedPolicy) Place(v orchestrator.View, r orchestrator.Request) (int, []int, bool) {
	sp := p.log.begin("place")
	host, slots, ok := p.Policy.Place(v, r)
	p.log.end(sp)
	p.log.placed(ok)
	return host, slots, ok
}

// trainScenario runs each cell on its own freshly composed system.
type trainScenario struct{ cells []trainCell }

type trainCell struct {
	cfg  cluster.Config
	opts train.Options
}

func (s *trainScenario) run(a attach) (outcome, error) {
	var out outcome
	h := sha256.New()
	for _, c := range s.cells {
		env := sim.NewEnv()
		opts := c.opts
		if a.obs {
			col := obs.NewCollector()
			col.Attach(env)
			opts.Obs = col
			out.cols = append(out.cols, col)
		}
		sp := a.spans.begin("compose")
		sys, err := cluster.Compose(env, c.cfg)
		a.spans.end(sp)
		if err != nil {
			return outcome{}, fmt.Errorf("compose %s: %w", c.cfg.Name, err)
		}
		if opts.Obs != nil {
			sys.Net.SetObs(opts.Obs)
		}
		var inv *invariant.Set
		if a.check {
			inv = invariant.New()
			inv.Watch(sys)
			opts.Probe = inv.TrainProbe()
		}
		sp = a.spans.begin("run")
		res, err := train.Run(sys, opts)
		a.spans.end(sp)
		if err != nil {
			return outcome{}, err
		}
		sp = a.spans.begin("fingerprint")
		h.Write([]byte(trainFingerprint(res)))
		a.spans.end(sp)
		out.simTime += res.TotalTime
		out.events += env.EventCount()
		out.iters += res.Iters
		if inv != nil {
			inv.CheckResult(sys, res)
			if err := inv.Err(); err != nil && out.invErr == nil {
				out.invErr = fmt.Errorf("%s/%s: %w", c.cfg.Name, c.opts.Workload.Name, err)
			}
		}
	}
	h.Sum(out.digest[:0])
	return out, nil
}

// trainFingerprint renders every deterministic scalar of a training result
// exactly: durations as integer nanoseconds, floats in shortest round-trip
// form.
func trainFingerprint(r *train.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sys=%s wl=%s strat=%s prec=%v sharded=%t batch=%d epochs=%d iters=%d total=%d avgIter=%d peak=%d epochs=",
		r.System, r.Workload, r.Strategy, r.Precision, r.Sharded, r.BatchPerGPU, r.Epochs, r.Iters,
		int64(r.TotalTime), int64(r.AvgIter), int64(r.PeakGPUMem))
	for _, e := range r.EpochTimes {
		b.WriteString(strconv.FormatInt(int64(e), 10))
		b.WriteByte(',')
	}
	for _, f := range []float64{r.AvgGPUUtil, r.AvgGPUMemUtil, r.AvgCPUUtil, r.AvgHostMemUtil, r.MemAccessFrac, r.FalconPCIeGBps} {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	}
	b.WriteByte('\n')
	return b.String()
}
