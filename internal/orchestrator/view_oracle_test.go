package orchestrator

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"composable/internal/cluster"
	"composable/internal/falcon"
	"composable/internal/faults"
	"composable/internal/sim"
)

// The reference model for the live View: the scheduler keeps one View and
// its free-slot index current at every change, and the oracle below
// rebuilds both from scratch before every Place call and requires them
// equal. Each slot's Host comes from the chassis control plane, not from
// the scheduler, so the oracle also proves the View's attachment record
// matches the hardware's.

// referenceView rebuilds the View: slot owners from the chassis control
// plane, the static partition from config (every slot's owner before the
// run), job ownership, load and health from the scheduler's state.
func referenceView(s *scheduler, config []int) View {
	f := s.fleet
	cpp := f.Opts.ChassisPerPod
	if cpp < 1 {
		cpp = 1
	}
	v := View{
		Hosts:             len(f.Hosts),
		Drawers:           f.NumDrawers(),
		DrawersPerChassis: falcon.NumDrawers,
		ChassisPerPod:     cpp,
		HostActiveGPUs:    append([]int(nil), s.hostGPUs...),
		HostActiveJobs:    append([]int(nil), s.hostJobs...),
		HostUp:            make([]bool, len(f.Hosts)),
		HostChassis:       make([]int, len(f.Hosts)),
		HostPod:           make([]int, len(f.Hosts)),
		Slots:             make([]SlotView, len(f.Slots)),
	}
	for h, host := range f.Hosts {
		v.HostUp[h] = s.hostAvailable(h)
		v.HostChassis[h] = host.ChassisIdx
		v.HostPod[h] = host.Pod
	}
	for i, slot := range f.Slots {
		down := !s.slotAvailable(i)
		v.Slots[i] = SlotView{
			Index:   i,
			Drawer:  slot.Drawer,
			Chassis: slot.ChassisIdx,
			Pod:     slot.Pod,
			Host:    f.OwnerHost(slot),
			Free:    s.slotJob[i] == -1 && !down,
			Down:    down,
			Config:  config[i],
		}
	}
	return v
}

// viewState is a deep copy of everything a policy can read from a View,
// the free-slot index included.
type viewState struct {
	Hosts, Drawers                                       int
	DrawersPerChassis, ChassisPerPod                     int
	Slots                                                []SlotView
	HostActiveGPUs, HostActiveJobs, HostChassis, HostPod []int
	HostUp                                               []bool
	Free                                                 int
	DrawerFree, DrawerStart                              []int
}

func captureView(v View, free int, drawerFree, drawerStart []int) viewState {
	return viewState{
		Hosts: v.Hosts, Drawers: v.Drawers,
		DrawersPerChassis: v.DrawersPerChassis, ChassisPerPod: v.ChassisPerPod,
		Slots:          append([]SlotView(nil), v.Slots...),
		HostActiveGPUs: append([]int(nil), v.HostActiveGPUs...),
		HostActiveJobs: append([]int(nil), v.HostActiveJobs...),
		HostChassis:    append([]int(nil), v.HostChassis...),
		HostPod:        append([]int(nil), v.HostPod...),
		HostUp:         append([]bool(nil), v.HostUp...),
		Free:           free,
		DrawerFree:     append([]int(nil), drawerFree...),
		DrawerStart:    append([]int(nil), drawerStart...),
	}
}

// liveState captures the View a Place call receives, with the index it
// carries.
func liveState(v View) viewState {
	return captureView(v, v.idx.free, v.idx.drawerFree, v.idx.drawerStart)
}

// referenceState rebuilds the View and counts its free pool directly:
// per-drawer free and slot counts, the offsets as their prefix sums.
func referenceState(t *testing.T, s *scheduler, config []int) viewState {
	t.Helper()
	v := referenceView(s, config)
	free := 0
	drawerFree := make([]int, v.Drawers)
	drawerStart := make([]int, v.Drawers+1)
	for i, sv := range v.Slots {
		if i > 0 && sv.Drawer < v.Slots[i-1].Drawer {
			t.Fatalf("slot %d (drawer %d) follows drawer %d: slot order is not drawer-contiguous", i, sv.Drawer, v.Slots[i-1].Drawer)
		}
		drawerStart[sv.Drawer+1]++
		if sv.Free {
			free++
			drawerFree[sv.Drawer]++
		}
	}
	for d := 0; d < v.Drawers; d++ {
		drawerStart[d+1] += drawerStart[d]
	}
	return captureView(v, free, drawerFree, drawerStart)
}

// viewDiff names the first field where got and want differ ("" if none),
// and for Slots the first differing slot.
func viewDiff(got, want viewState) string {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		g, w := gv.Field(i).Interface(), wv.Field(i).Interface()
		if reflect.DeepEqual(g, w) {
			continue
		}
		name := gv.Type().Field(i).Name
		if name == "Slots" && len(got.Slots) == len(want.Slots) {
			for j := range got.Slots {
				if got.Slots[j] != want.Slots[j] {
					return fmt.Sprintf("Slots[%d] = %+v, want %+v", j, got.Slots[j], want.Slots[j])
				}
			}
		}
		return fmt.Sprintf("%s = %v, want %v", name, g, w)
	}
	return ""
}

// viewOracle wraps a policy: before every Place it checks the live View
// and index against the rebuild, after it checks the policy left the View
// as it found it. It reports only the first divergence of a run.
type viewOracle struct {
	Policy
	t      *testing.T
	s      *scheduler
	config []int // every slot's owner before the run
	calls  int
	failed bool
}

func (o *viewOracle) fail(format string, args ...any) {
	if !o.failed {
		o.failed = true
		o.t.Errorf("%s, Place call %d at %v: %s", o.Name(), o.calls, o.s.now(), fmt.Sprintf(format, args...))
	}
}

func (o *viewOracle) Place(v View, r Request) (int, []int, bool) {
	o.calls++
	before := liveState(v)
	if d := viewDiff(before, referenceState(o.t, o.s, o.config)); d != "" {
		o.fail("live View differs from the rebuild: %s", d)
	}
	host, picks, ok := o.Policy.Place(v, r)
	if d := viewDiff(liveState(v), before); d != "" {
		o.fail("policy modified the View: %s", d)
	}
	return host, picks, ok
}

// oracleStream is a pod-burst-shaped stream: one-iteration jobs of 2, 4
// or 6 GPUs, one in 50 spanning drawers at 20 GPUs (capped at maxGPUs),
// arriving gap apart on average from random tenants.
func oracleStream(rng *rand.Rand, n, maxGPUs, tenants int, gap time.Duration) []JobSpec {
	models := [...]string{"ResNet-50", "BERT", "MobileNetV2"}
	jobs := make([]JobSpec, n)
	at := make([]time.Duration, n)
	for i := range jobs {
		g := 2 + 2*(i%3)
		if i%50 == 0 {
			g = 20
		}
		jobs[i] = JobSpec{GPUs: min(g, maxGPUs), Workload: models[i%3], Epochs: 1 + i%2, ItersPerEpoch: 1}
		at[i] = time.Duration(rng.Int63n(int64(n) * int64(gap)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	for i := range jobs {
		jobs[i].Arrival = at[i]
		jobs[i].Tenant = rng.Intn(tenants)
	}
	return jobs
}

// oraclePlan is a PlanMTBF plan (GPU, drawer and slot-link faults) plus
// host and, on a pod fleet, pod faults, every one repaired.
func oraclePlan(rng *rand.Rand, f *cluster.FleetSystem, horizon time.Duration) faults.Plan {
	b := faults.Bounds{
		Slots:          len(f.Slots),
		SlotsPerDrawer: falcon.SlotsPerDrawer,
		Hosts:          len(f.Hosts),
		Horizon:        horizon,
	}
	if f.Opts.Hierarchical() {
		b.Drawers, b.Pods = f.NumDrawers(), f.NumPods()
	}
	plan := faults.PlanMTBF(rng.Int63(), horizon/8, b)
	for k := 0; k < 3; k++ {
		plan.Events = append(plan.Events, faults.Event{
			At: time.Duration(rng.Int63n(int64(horizon))), Kind: faults.KindHost,
			Target: rng.Intn(len(f.Hosts)), Repair: horizon / 4,
		})
	}
	if b.Pods > 0 {
		plan.Events = append(plan.Events, faults.Event{
			At: horizon / 3, Kind: faults.KindPod, Target: rng.Intn(b.Pods), Repair: horizon / 4,
		})
	}
	return plan
}

// TestLiveViewOracle drives every built-in policy on the pod fleet and on
// the single-chassis fleet under GPU, drawer, host and pod faults, and
// checks the live View against the rebuild before every Place call and
// once more after the run.
func TestLiveViewOracle(t *testing.T) {
	podFleet := cluster.FleetOptions{Hosts: 2, GPUs: 16, Pods: 8, ChassisPerPod: 8, Oversubscription: 4}
	chassisFleet := cluster.FleetOptions{Hosts: 3, GPUs: 16}
	type fleetCase struct {
		name     string
		opts     cluster.FleetOptions
		jobs     int
		gap      time.Duration
		maxShare int // largest job the static policy's per-host share fits
	}
	for _, fc := range []fleetCase{
		{"pod", podFleet, 128, 25 * time.Millisecond, 8},
		{"chassis", chassisFleet, 40, time.Second, 5},
	} {
		for seed := int64(1); seed <= 2; seed++ {
			injected := map[faults.Kind]int{}
			for _, p := range Policies() {
				t.Run(fmt.Sprintf("%s/seed%d/%s", fc.name, seed, p.Name()), func(t *testing.T) {
					opts := fc.opts
					maxGPUs := opts.Hosts * opts.GPUs
					if p.Name() == "static" {
						opts.Preattach = true
						maxGPUs = fc.maxShare
					}
					f, err := cluster.ComposeFleet(sim.NewEnv(), opts)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(seed))
					specs := oracleStream(rng, fc.jobs, maxGPUs, len(f.Hosts), fc.gap)
					plan := oraclePlan(rng, f, time.Duration(fc.jobs)*fc.gap)
					config := make([]int, len(f.Slots))
					for i, slot := range f.Slots {
						config[i] = f.OwnerHost(slot)
					}
					s, err := newScheduler(f, specs, Options{Policy: p, Faults: &plan})
					if err != nil {
						t.Fatal(err)
					}
					o := &viewOracle{Policy: p, t: t, s: s, config: config}
					s.opts.Policy = o
					res, err := s.run()
					if err != nil {
						t.Fatal(err)
					}
					if o.calls < fc.jobs {
						t.Errorf("%d Place calls for %d jobs", o.calls, fc.jobs)
					}
					if d := viewDiff(liveState(s.view), referenceState(t, s, config)); d != "" {
						t.Errorf("after the run, live View differs from the rebuild: %s", d)
					}
					if res.Faults == 0 {
						t.Error("no fault was injected")
					}
					for _, rec := range s.injector.Records() {
						if !rec.Up {
							injected[rec.Kind]++
						}
					}
				})
			}
			want := []faults.Kind{faults.KindGPU, faults.KindDrawer, faults.KindHost}
			if fc.opts.Pods > 0 {
				want = append(want, faults.KindPod)
			}
			for _, k := range want {
				if injected[k] == 0 {
					t.Errorf("%s seed %d: no %s fault injected (%v)", fc.name, seed, k, injected)
				}
			}
		}
	}
}
