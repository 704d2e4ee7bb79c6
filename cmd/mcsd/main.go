// Command mcsd runs the Management Center Server (§II-D): the multi-tenant
// HTTP control plane for a Falcon chassis. It seats the paper's device
// inventory (16 V100s + NVMe across two drawers), cables the configured
// hosts, and serves the management API.
//
// Usage:
//
//	mcsd -addr :8080 -users users.json
//
// where users.json is a list of {"name","role","token","hosts":[...]}.
// Without -users a demo tenant set is used (tokens printed at startup).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"composable/internal/falcon"
	"composable/internal/gpu"
	"composable/internal/mcs"
	"composable/internal/storage"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, listenAndServe)) }

// Connection timeouts for the production server, so a slow or idle client
// cannot hold a connection open forever. Request bodies are small JSON
// documents, but an admin queue drain runs the whole orchestrator inside
// one request, so the write timeout leaves it minutes.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 5 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// newServer is the production HTTP server for handler h on addr.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// listenAndServe serves h on addr with newServer's timeouts.
func listenAndServe(addr string, h http.Handler) error {
	return newServer(addr, h).ListenAndServe()
}

// run is the testable main: parse flags, seed the chassis, build the
// server and hand it to serve (listenAndServe in production, a stub in
// tests). It returns the process exit code.
func run(args []string, stdout, stderr io.Writer, serve func(addr string, h http.Handler) error) int {
	fs := flag.NewFlagSet("mcsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		usersFile = fs.String("users", "", "JSON file with the tenant list")
		sloSpec   = fs.String("slo", "", `SLO every queue drain is scored against, e.g. "p99-wait<=1m max-failed<=0" (admin GET /api/health reports the verdict)`)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ch := falcon.New("falcon-1")
	if err := seedInventory(ch); err != nil {
		fmt.Fprintln(stderr, "mcsd:", err)
		return 1
	}

	users := demoUsers()
	if *usersFile != "" {
		var err error
		if users, err = loadUsers(*usersFile); err != nil {
			fmt.Fprintln(stderr, "mcsd:", err)
			return 1
		}
	} else {
		fmt.Fprintln(stdout, "mcsd: using demo tenants:")
		for _, u := range users {
			fmt.Fprintf(stdout, "  %-8s role=%-6s token=%s hosts=%v\n", u.Name, u.Role, u.Token, u.Hosts)
		}
	}

	srv := mcs.NewServer(ch, users)
	if err := srv.SetSLO(*sloSpec); err != nil {
		fmt.Fprintln(stderr, "mcsd:", err)
		return 2
	}
	if *sloSpec != "" {
		fmt.Fprintf(stdout, "mcsd: scoring queue drains against SLO %q\n", *sloSpec)
	}
	fmt.Fprintf(stdout, "mcsd: serving Falcon management API on %s\n", *addr)
	if err := serve(*addr, srv.Handler()); err != nil {
		fmt.Fprintln(stderr, "mcsd:", err)
		return 1
	}
	return 0
}

// loadUsers reads the tenant list from a JSON file.
func loadUsers(path string) ([]mcs.User, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var users []mcs.User
	if err := json.Unmarshal(data, &users); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return users, nil
}

// seedInventory populates the chassis with the paper's device set
// (§V-A-1): V100s in both drawers plus the drawer-2 NVMe, hosts cabled to
// all four ports, both drawers in advanced mode for dynamic provisioning.
func seedInventory(ch *falcon.Chassis) error {
	if err := ch.CableHost("H1", "host1"); err != nil {
		return fmt.Errorf("seeding chassis: %w", err)
	}
	if err := ch.CableHost("H2", "host1"); err != nil {
		return fmt.Errorf("seeding chassis: %w", err)
	}
	if err := ch.CableHost("H3", "host2"); err != nil {
		return fmt.Errorf("seeding chassis: %w", err)
	}
	if err := ch.CableHost("H4", "host2"); err != nil {
		return fmt.Errorf("seeding chassis: %w", err)
	}
	if err := ch.SetMode(0, falcon.ModeAdvanced); err != nil {
		return fmt.Errorf("seeding chassis: %w", err)
	}
	if err := ch.SetMode(1, falcon.ModeAdvanced); err != nil {
		return fmt.Errorf("seeding chassis: %w", err)
	}
	for d := 0; d < falcon.NumDrawers; d++ {
		for s := 0; s < 4; s++ {
			err := ch.Install(falcon.SlotRef{Drawer: d, Slot: s}, falcon.DeviceInfo{
				ID:    fmt.Sprintf("v100-d%d-s%d", d, s),
				Type:  falcon.DeviceGPU,
				Model: gpu.TeslaV100PCIe.Name, VendorID: "10de", LinkGen: 4, Lanes: 16,
			})
			if err != nil {
				return fmt.Errorf("seeding chassis: %w", err)
			}
		}
	}
	err := ch.Install(falcon.SlotRef{Drawer: 1, Slot: 7}, falcon.DeviceInfo{
		ID: "nvme-0", Type: falcon.DeviceNVMe,
		Model: storage.IntelNVMe4TB.Name, VendorID: "8086", LinkGen: 3, Lanes: 4,
	})
	if err != nil {
		return fmt.Errorf("seeding chassis: %w", err)
	}
	return nil
}

func demoUsers() []mcs.User {
	return []mcs.User{
		{Name: "admin", Role: mcs.RoleAdmin, Token: "demo-admin-token"},
		{Name: "alice", Role: mcs.RoleUser, Token: "demo-alice-token", Hosts: []string{"host1"}},
		{Name: "bob", Role: mcs.RoleUser, Token: "demo-bob-token", Hosts: []string{"host2"}},
	}
}
