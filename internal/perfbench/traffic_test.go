package perfbench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"composable/internal/cluster"
	"composable/internal/orchestrator"
	"composable/internal/sim"
	"composable/internal/units"
)

// TestBenchFleetPortTrafficPinned pins every chassis's port-traffic view
// (the management GUI's per-slot byte counters) after a full run on the
// two fleet shapes the end-to-end benchmark composes: the 1024-GPU pod
// fleet under the pod-schedule stream and the single 16-GPU chassis
// under the fleet-schedule stream. The digest covers every row of every
// chassis in order; it was captured when traffic sources lived in a
// per-chassis map, and must not move when they move into the slots.
func TestBenchFleetPortTrafficPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pod-schedule stream")
	}
	for _, tc := range []struct {
		name   string
		opts   cluster.FleetOptions
		stream []orchestrator.JobSpec
		want   string
	}{
		{"pod", PodFleetOptions(), PodBenchStream(), "a7ae0082dacafa2292dca5c7d40cb93454d2027b0aeb244931b42cfb7e9ba61a"},
		{"chassis", cluster.FleetOptions{Hosts: 3, GPUs: 16}, fleetScheduleStream(), "7a60575d368c7186ae590e0927156d8b69fac47bc86351d314a9ea68c9a67ffc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet, err := cluster.ComposeFleet(sim.NewEnv(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := orchestrator.Run(fleet, tc.stream, orchestrator.Options{Policy: orchestrator.DrawerLocal{}})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) != len(tc.stream) || res.FailedJobs != 0 {
				t.Fatalf("incomplete run: %d results, %d failed", len(res.Jobs), res.FailedJobs)
			}
			h := sha256.New()
			var moved units.Bytes
			for _, ch := range fleet.ChassisList {
				rows := ch.PortTraffic()
				if len(rows) != tc.opts.GPUs {
					t.Fatalf("%s: %d traffic rows, want one per GPU (%d)", ch.Name, len(rows), tc.opts.GPUs)
				}
				for _, r := range rows {
					fmt.Fprintf(h, "%s %+v\n", ch.Name, r)
					moved += r.Ingress + r.Egress
				}
			}
			if moved == 0 {
				t.Fatal("no slot moved a byte: the traffic sources are not wired")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("port-traffic digest = %s, want %s", got, tc.want)
			}
		})
	}
}
