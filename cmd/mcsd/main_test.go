package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"composable/internal/falcon"
)

// capture runs main's run() with a stub serve that grabs the handler
// instead of binding a socket.
func capture(t *testing.T, args ...string) (code int, addr string, h http.Handler, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb, func(a string, handler http.Handler) error {
		addr, h = a, handler
		return nil
	})
	return code, addr, h, out.String(), errb.String()
}

func TestBadFlagRejected(t *testing.T) {
	code, _, _, _, _ := capture(t, "-no-such-flag")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestMissingUsersFileRejected(t *testing.T) {
	code, _, _, _, stderr := capture(t, "-users", "/does/not/exist.json")
	if code != 1 || !strings.Contains(stderr, "mcsd:") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestMalformedUsersFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "users.json")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, _, _, stderr := capture(t, "-users", path)
	if code != 1 || !strings.Contains(stderr, "parsing") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestServeErrorPropagates(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(nil, &out, &errb, func(string, http.Handler) error {
		return errors.New("bind: address in use")
	})
	if code != 1 || !strings.Contains(errb.String(), "address in use") {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
}

// TestProductionServerHasTimeouts guards the server main hands to
// ListenAndServe: a zero timeout there means a client can hold a
// connection open forever.
func TestProductionServerHasTimeouts(t *testing.T) {
	srv := newServer(":8080", http.NotFoundHandler())
	if srv.Addr != ":8080" || srv.Handler == nil {
		t.Fatalf("server addr %q, handler %v", srv.Addr, srv.Handler)
	}
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want a positive bound", name, d)
		}
	}
}

func TestDemoModeAnnouncesTenants(t *testing.T) {
	code, addr, h, stdout, _ := capture(t, "-addr", ":9999")
	if code != 0 || h == nil {
		t.Fatalf("exit %d, handler %v", code, h)
	}
	if addr != ":9999" {
		t.Errorf("addr = %q", addr)
	}
	for _, want := range []string{"demo tenants", "demo-admin-token", "alice", "bob", ":9999"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

func TestSeedInventoryMatchesPaper(t *testing.T) {
	ch := falcon.New("falcon-test")
	if err := seedInventory(ch); err != nil {
		t.Fatal(err)
	}
	gpus, nvmes := 0, 0
	for _, ref := range ch.Slots() {
		switch ch.Device(ref).Type {
		case falcon.DeviceGPU:
			gpus++
		case falcon.DeviceNVMe:
			nvmes++
		}
	}
	if gpus != 8 || nvmes != 1 {
		t.Fatalf("seeded %d GPUs and %d NVMes, want 8 and 1", gpus, nvmes)
	}
	// Seeding twice must fail (slots already occupied) — run() treats
	// that as a fatal configuration error.
	if err := seedInventory(ch); err == nil {
		t.Fatal("re-seeding an occupied chassis did not error")
	}
}

// TestServedAPIEndToEnd drives the handler run() builds through a real
// HTTP round trip: auth, tenant isolation, attach/detach, admin surfaces.
func TestServedAPIEndToEnd(t *testing.T) {
	usersPath := filepath.Join(t.TempDir(), "users.json")
	users := `[
		{"Name":"root","Role":"admin","Token":"tok-root"},
		{"Name":"alice","Role":"user","Token":"tok-alice","Hosts":["host1"]},
		{"Name":"bob","Role":"user","Token":"tok-bob","Hosts":["host2"]}
	]`
	if err := os.WriteFile(usersPath, []byte(users), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, h, _, stderr := capture(t, "-users", usersPath)
	if code != 0 || h == nil {
		t.Fatalf("exit %d, stderr %s", code, stderr)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	do := func(method, path, token string, body any) (*http.Response, []byte) {
		t.Helper()
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatal(err)
			}
		}
		req, err := http.NewRequest(method, ts.URL+path, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, out.Bytes()
	}

	// No token → 401.
	if resp, _ := do("GET", "/api/topology", "", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated topology: %d", resp.StatusCode)
	}
	// The seeded inventory is visible to a tenant.
	resp, body := do("GET", "/api/devices", "tok-alice", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("devices: %d", resp.StatusCode)
	}
	for _, want := range []string{"v100-d0-s0", "v100-d1-s3", "nvme-0"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("devices missing %q", want)
		}
	}
	// Tenant attach on an owned port works...
	resp, body = do("POST", "/api/attach", "tok-alice",
		map[string]any{"drawer": 0, "slot": 0, "port": "H1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice attach: %d %s", resp.StatusCode, body)
	}
	// ...and on someone else's port is forbidden.
	resp, _ = do("POST", "/api/attach", "tok-bob",
		map[string]any{"drawer": 0, "slot": 1, "port": "H1"})
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("bob attaching to host1 port: %d, want 403", resp.StatusCode)
	}
	// Admin-only surfaces are gated.
	if resp, _ = do("GET", "/api/audit", "tok-alice", nil); resp.StatusCode != http.StatusForbidden {
		t.Errorf("alice reading audit log: %d, want 403", resp.StatusCode)
	}
	resp, body = do("GET", "/api/audit", "tok-root", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "attach") {
		t.Errorf("admin audit: %d %s", resp.StatusCode, body)
	}

	// Fleet job queue rides on the same served handler: submit as a
	// tenant, drain as admin (policy run on the simulated fleet), read
	// the telemetry back. Tenancy details are covered in internal/mcs.
	resp, body = do("POST", "/api/jobs", "tok-alice",
		map[string]any{"workload": "ResNet-50", "gpus": 2, "iters": 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("job submit: %d %s", resp.StatusCode, body)
	}
	if resp, _ = do("POST", "/api/jobs/run", "tok-alice", map[string]any{}); resp.StatusCode != http.StatusForbidden {
		t.Errorf("tenant draining the queue: %d, want 403", resp.StatusCode)
	}
	resp, body = do("POST", "/api/jobs/run", "tok-root", map[string]any{"hosts": 2, "gpus": 4})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ran":1`) {
		t.Errorf("admin run: %d %s", resp.StatusCode, body)
	}
	resp, body = do("GET", "/api/jobs/0", "tok-alice", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status":"done"`) {
		t.Errorf("job status: %d %s", resp.StatusCode, body)
	}
}
