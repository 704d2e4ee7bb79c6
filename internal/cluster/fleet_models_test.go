package cluster

import (
	"testing"

	"composable/internal/sim"
)

// TestFleetModelsCreatedOnFirstJobSystem pins when a pod fleet's device
// models come into being: compose builds none, the first JobSystem over a
// slot or host builds its models and schedules nothing, and every later
// view hands back the same models.
func TestFleetModelsCreatedOnFirstJobSystem(t *testing.T) {
	env := sim.NewEnv()
	f, err := ComposeFleet(env, FleetOptions{Hosts: 2, GPUs: 16, Pods: 8, ChassisPerPod: 8, Oversubscription: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Slots {
		if s.Device() != nil {
			t.Fatalf("slot %d has a GPU model before any job view", s.Index)
		}
	}
	for _, h := range f.Hosts {
		if h.cpu != nil || h.store != nil || h.cache != nil {
			t.Fatalf("host %s has models before any job view", h.Name)
		}
	}

	// A view over host 5 and slots 17-19, the second chassis's.
	host, slots := f.Hosts[5], f.Slots[17:20]
	first := f.JobSystem(nil, host, slots, "a")
	if !env.Idle() || env.LiveProcs() != 0 {
		t.Fatal("creating device models scheduled work")
	}
	for i, s := range f.Slots {
		dev := s.Device()
		if (dev != nil) != (i >= 17 && i < 20) {
			t.Fatalf("slot %d: model %v after a view over slots 17-19", i, dev)
		}
		if dev == nil {
			continue
		}
		if dev != first.GPUs[i-17] || dev.Index != s.Index || dev.Node != s.Node || dev.Spec != f.GPUSpec || dev.Local {
			t.Errorf("slot %d: model %+v does not match the slot", i, dev)
		}
	}
	for i, h := range f.Hosts {
		if (h.cpu != nil) != (i == 5) || (h.store != nil) != (i == 5) || (h.cache != nil) != (i == 5) {
			t.Fatalf("host %d: models after a view over host 5: cpu %v store %v cache %v", i, h.cpu, h.store, h.cache)
		}
	}
	if first.Host != host.cpu || first.Store != host.store || first.Cache != host.cache || first.Store.Node != host.storeNode {
		t.Fatal("the view does not carry the host's models")
	}

	// A second view, overlapping the first, reuses what exists.
	second := f.JobSystem(nil, host, f.Slots[18:21], "b")
	if second.GPUs[0] != first.GPUs[1] || second.GPUs[1] != first.GPUs[2] {
		t.Error("a later view built new models for slots that had them")
	}
	if second.Host != first.Host || second.Store != first.Store || second.Cache != first.Cache {
		t.Error("a later view built new host models")
	}
	if f.Slots[20].Device() != second.GPUs[2] {
		t.Error("slot 20's model is not the one its first view built")
	}
	again := f.JobSystem(first, host, slots, "a")
	for i, s := range slots {
		if again.GPUs[i] != s.Device() {
			t.Errorf("slot %d: a refilled view holds another model", s.Index)
		}
	}
}

// TestComposeReservesWhatItLogs pins the chassis log reservations against
// what the builders log: each reserves exactly its build's entries.
func TestComposeReservesWhatItLogs(t *testing.T) {
	for _, cfg := range TableIIIConfigs() {
		s, err := Compose(sim.NewEnv(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(s.Chassis.Events()), composeLogEntries(cfg); got != want {
			t.Errorf("%s: compose logged %d entries, reserved %d", cfg.Name, got, want)
		}
	}
	for _, opts := range []FleetOptions{
		{Hosts: 2, GPUs: 16, Pods: 2, ChassisPerPod: 2},
		{Hosts: 3, GPUs: 12},
		{Hosts: 2, GPUs: 8, Preattach: true},
		{Hosts: 1, GPUs: 5, Pods: 2, ChassisPerPod: 3, Preattach: true},
	} {
		f, err := ComposeFleet(sim.NewEnv(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range f.ChassisList {
			if got, want := len(ch.Events()), fleetChassisLogEntries(opts); got != want {
				t.Errorf("%+v: chassis %s logged %d entries, reserved %d", opts, ch.Name, got, want)
			}
		}
	}
	_, ch, err := ComposeShared(sim.NewEnv(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(ch.Events()), 1+3+2*3*2; got != want {
		t.Errorf("shared: logged %d entries, reserved %d", got, want)
	}
}
