package cluster_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"composable/internal/cluster"
	"composable/internal/fabric"
	"composable/internal/falcon"
	"composable/internal/sim"
)

// writeNet hashes the fabric graph in creation order: every node's ID,
// name and kind and every link's endpoints, capacities, latency and
// protocol label. The creation order defines every fabric ID, so any
// reordering or renaming moves the digest.
func writeNet(h hash.Hash, net *fabric.Network) {
	for _, n := range net.Nodes() {
		fmt.Fprintf(h, "node %d %s %s\n", n.ID, n.Name, n.Kind)
	}
	for _, l := range net.Links() {
		fmt.Fprintf(h, "link %d %d-%d %v %v %v %s\n", l.ID, l.A, l.B, l.CapAtoB, l.CapBtoA, l.Latency, l.Protocol)
	}
}

// writeChassis hashes a chassis's exported allocation, its topology view
// and its formatted event log.
func writeChassis(t *testing.T, h hash.Hash, ch *falcon.Chassis) {
	t.Helper()
	cfg, err := ch.ExportConfig()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "chassis %s\n%s\n%s", ch.Name, cfg, ch.Topology())
	for _, e := range ch.Events() {
		fmt.Fprintf(h, "%d %s %s\n", int64(e.At), e.Severity, e.Message)
	}
}

func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// TestComposeFleetPinned pins what ComposeFleet builds, byte for byte:
// the fabric graph, every chassis's state and log, and the host and slot
// records, for the pod fleet the benchmarks run, a single chassis, and
// two pre-attached shapes. The digests were captured before the compose
// path stopped formatting names with fmt.
func TestComposeFleetPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts FleetOptions
		want string
	}{
		{"pod", FleetOptions{Hosts: 2, GPUs: 16, Pods: 8, ChassisPerPod: 8, Oversubscription: 4}, "7288b88a36b6b9d927f23756bfb157942dbe47660acc5bd34706a01db3caaa3e"},
		{"chassis", FleetOptions{Hosts: 3, GPUs: 16}, "4f20e495b21b095aaccc40ef50c69fbad3ae80d09bc90a8fd0149790c43d686f"},
		{"preattach", FleetOptions{Hosts: 2, GPUs: 8, Preattach: true}, "16d8c1f7f30c6f1a4018bc7228799bc24c6126a4f82abbe97cd3cd34a45ed123"},
		{"pod-p100", FleetOptions{Hosts: 1, GPUs: 5, Pods: 2, ChassisPerPod: 3, GPUModel: "P100", Preattach: true}, "24c0b752eb8ababb70ff3d01693a2645405cf86965b1205f86d5e93ebd2244c4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := ComposeFleet(sim.NewEnv(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			writeNet(h, f.Net)
			for _, ch := range f.ChassisList {
				writeChassis(t, h, ch)
			}
			for _, host := range f.Hosts {
				fmt.Fprintf(h, "host %d %s %s %d %d %d %d %d\n", host.Index, host.Name, host.Port,
					host.Pod, host.ChassisIdx, host.RC, host.Mem, host.AdapterLink)
			}
			// The slots' GPU models exist once a job view includes them.
			gpus := f.JobSystem(nil, f.Hosts[0], f.Slots, "pin").GPUs
			for i, s := range f.Slots {
				dev := gpus[i]
				fmt.Fprintf(h, "slot %d %v %d %d %d %d %d %d %d %s %d\n", s.Index, s.Ref, s.Node, s.Link,
					s.Drawer, s.Pod, s.ChassisIdx, dev.Index, dev.Node, dev.Spec.Name, f.OwnerHost(s))
			}
			if got := digest(h); got != tc.want {
				t.Errorf("compose digest = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestComposePinned pins cluster.Compose for every Table III
// configuration plus the single-drawer and P100 variants, and
// ComposeShared, the same way TestComposeFleetPinned pins fleets.
func TestComposePinned(t *testing.T) {
	single := cluster.FalconGPUsConfig()
	single.Name, single.SingleDrawer = "singleDrawer", true
	p100 := cluster.HybridGPUsConfig()
	p100.Name, p100.FalconGPUModel = "hybridP100", "P100"
	h := sha256.New()
	for _, cfg := range append(cluster.TableIIIConfigs(), single, p100) {
		s, err := cluster.Compose(sim.NewEnv(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "config %s\n", cfg.Name)
		writeNet(h, s.Net)
		writeChassis(t, h, s.Chassis)
		for _, g := range s.GPUs {
			fmt.Fprintf(h, "gpu %d %d %s %v\n", g.Index, g.Node, g.Spec.Name, g.Local)
		}
		fmt.Fprintf(h, "%v %v %v %v\n", s.FalconGPUPortLinks, s.HostAdapterLinks, s.Store.Node, s.Store.Falcon)
	}
	systems, ch, err := cluster.ComposeShared(sim.NewEnv(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	writeNet(h, systems[0].Net)
	writeChassis(t, h, ch)
	for _, s := range systems {
		fmt.Fprintf(h, "shared %s %d %d %v %v\n", s.Cfg.Name, s.RC, s.Mem, s.FalconGPUPortLinks, s.HostAdapterLinks)
	}
	if got, want := digest(h), "6377d4df1d58fb94076fbb294672541221accc7586d68942b142dd197b5993d8"; got != want {
		t.Errorf("compose digest = %s, want %s", got, want)
	}
}
