package mcs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"composable/internal/falcon"
	"composable/internal/units"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server, *falcon.Chassis) {
	t.Helper()
	ch := falcon.New("falcon-test")
	for i, h := range []string{"hostA", "hostA", "hostB", "hostB"} {
		if err := ch.CableHost(fmt.Sprintf("H%d", i+1), h); err != nil {
			t.Fatal(err)
		}
	}
	if err := ch.SetMode(0, falcon.ModeAdvanced); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		ref := falcon.SlotRef{Drawer: 0, Slot: s}
		dev := falcon.DeviceInfo{ID: fmt.Sprintf("gpu-%d", s), Type: falcon.DeviceGPU, Model: "V100"}
		if err := ch.Install(ref, dev); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(ch, []User{
		{Name: "alice", Role: RoleUser, Token: "tok-alice", Hosts: []string{"hostA"}},
		{Name: "bob", Role: RoleUser, Token: "tok-bob", Hosts: []string{"hostB"}},
		{Name: "root", Role: RoleAdmin, Token: "tok-root"},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, ch
}

func call(t *testing.T, ts *httptest.Server, method, path, token string, body interface{}) (*http.Response, []byte) {
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

func TestUnauthenticatedRejected(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, _ := call(t, ts, "GET", "/api/topology", "", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", resp.StatusCode)
	}
	resp, _ = call(t, ts, "GET", "/api/topology", "tok-bogus", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bogus token status = %d, want 401", resp.StatusCode)
	}
}

func TestUserCanAttachToOwnHost(t *testing.T) {
	_, ts, ch := newTestServer(t)
	resp, body := call(t, ts, "POST", "/api/attach", "tok-alice",
		attachRequest{Drawer: 0, Slot: 0, Port: "H1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	if got := ch.Owner(falcon.SlotRef{Drawer: 0, Slot: 0}); got != "H1" {
		t.Fatalf("owner = %q", got)
	}
}

func TestUserCannotTouchOtherUsersResources(t *testing.T) {
	_, ts, ch := newTestServer(t)
	// Alice attaches to hostA's port.
	if resp, _ := call(t, ts, "POST", "/api/attach", "tok-alice",
		attachRequest{Drawer: 0, Slot: 0, Port: "H1"}); resp.StatusCode != 200 {
		t.Fatal("alice attach failed")
	}
	// Bob cannot attach to hostA's port...
	resp, _ := call(t, ts, "POST", "/api/attach", "tok-bob",
		attachRequest{Drawer: 0, Slot: 1, Port: "H1"})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("bob attach to H1 status = %d, want 403", resp.StatusCode)
	}
	// ...and cannot detach alice's device.
	resp, _ = call(t, ts, "POST", "/api/detach", "tok-bob",
		attachRequest{Drawer: 0, Slot: 0})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("bob detach status = %d, want 403", resp.StatusCode)
	}
	if got := ch.Owner(falcon.SlotRef{Drawer: 0, Slot: 0}); got != "H1" {
		t.Fatalf("alice's device was detached: owner=%q", got)
	}
}

func TestAdminBypassesOwnership(t *testing.T) {
	_, ts, _ := newTestServer(t)
	if resp, _ := call(t, ts, "POST", "/api/attach", "tok-alice",
		attachRequest{Drawer: 0, Slot: 0, Port: "H1"}); resp.StatusCode != 200 {
		t.Fatal("alice attach failed")
	}
	resp, body := call(t, ts, "POST", "/api/detach", "tok-root",
		attachRequest{Drawer: 0, Slot: 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin detach status = %d, body = %s", resp.StatusCode, body)
	}
}

func TestAdminOnlyEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for _, path := range []string{"/api/events", "/api/audit", "/api/config"} {
		resp, _ := call(t, ts, "GET", path, "tok-alice", nil)
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s as user: status = %d, want 403", path, resp.StatusCode)
		}
		resp, _ = call(t, ts, "GET", path, "tok-root", nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s as admin: status = %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestAuditLogRecordsDenials(t *testing.T) {
	_, ts, _ := newTestServer(t)
	call(t, ts, "POST", "/api/attach", "tok-alice", attachRequest{Drawer: 0, Slot: 0, Port: "H1"})
	call(t, ts, "POST", "/api/attach", "tok-bob", attachRequest{Drawer: 0, Slot: 1, Port: "H1"})
	audit := auditLog(t, ts)
	var ok, denied int
	for _, e := range audit {
		switch e.Result {
		case "ok":
			ok++
		case "denied":
			denied++
		}
	}
	if ok != 1 || denied != 1 {
		t.Fatalf("audit ok=%d denied=%d, entries=%+v", ok, denied, audit)
	}
}

func TestReadEndpointsServeJSON(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for _, path := range []string{"/api/topology", "/api/summary", "/api/sensors", "/api/health", "/api/devices"} {
		resp, body := call(t, ts, "GET", path, "tok-alice", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
		var v interface{}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("%s: invalid JSON: %v", path, err)
		}
	}
}

func TestModeSwitchViaAPI(t *testing.T) {
	_, ts, ch := newTestServer(t)
	resp, body := call(t, ts, "POST", "/api/mode", "tok-root",
		modeRequest{Drawer: 1, Mode: falcon.ModeStandardTwoHost})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	exported, err := ch.ExportConfig()
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct{ Drawers []struct{ Mode falcon.Mode } }
	if err := json.Unmarshal(exported, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Drawers[1].Mode != falcon.ModeStandardTwoHost {
		t.Fatal("mode not applied")
	}
	// Users cannot switch modes.
	resp, _ = call(t, ts, "POST", "/api/mode", "tok-alice",
		modeRequest{Drawer: 1, Mode: falcon.ModeAdvanced})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("user mode switch status = %d, want 403", resp.StatusCode)
	}
}

func TestTrafficEndpoint(t *testing.T) {
	srv, ts, ch := newTestServer(t)
	_ = srv
	// Wire a synthetic traffic source for one slot.
	ch.SetTrafficSource(falcon.SlotRef{Drawer: 0, Slot: 0}, func() (in, out units.Bytes) {
		return 1000, 2000
	})
	resp, body := call(t, ts, "GET", "/api/traffic", "tok-alice", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rows []map[string]interface{}
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1 monitored slot", len(rows))
	}
	if rows[0]["egressBytes"].(float64) != 2000 {
		t.Fatalf("egress = %v", rows[0]["egressBytes"])
	}
}

// TestEventsBodyPinned pins the /api/events body byte for byte: "null"
// for a fresh chassis, whose log is nil, and the JSON log of the test
// chassis (four cables, a mode switch, four installs) after one attach.
func TestEventsBodyPinned(t *testing.T) {
	fresh := httptest.NewServer(NewServer(falcon.New("fresh"), []User{
		{Name: "root", Role: RoleAdmin, Token: "tok-root"},
	}).Handler())
	defer fresh.Close()
	if _, body := call(t, fresh, "GET", "/api/events", "tok-root", nil); string(body) != "null\n" {
		t.Errorf("fresh chassis events body = %q, want %q", body, "null\n")
	}

	_, ts, _ := newTestServer(t)
	if resp, body := call(t, ts, "POST", "/api/attach", "tok-alice", attachRequest{Drawer: 0, Slot: 2, Port: "H1"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("attach: status %d, body %s", resp.StatusCode, body)
	}
	const want = `[{"at":0,"severity":"info","message":"host hostA cabled to port H1"},` +
		`{"at":0,"severity":"info","message":"host hostA cabled to port H2"},` +
		`{"at":0,"severity":"info","message":"host hostB cabled to port H3"},` +
		`{"at":0,"severity":"info","message":"host hostB cabled to port H4"},` +
		`{"at":0,"severity":"info","message":"drawer 0 mode set to advanced"},` +
		`{"at":0,"severity":"info","message":"device gpu-0 (GPU) installed in d0/s0"},` +
		`{"at":0,"severity":"info","message":"device gpu-1 (GPU) installed in d0/s1"},` +
		`{"at":0,"severity":"info","message":"device gpu-2 (GPU) installed in d0/s2"},` +
		`{"at":0,"severity":"info","message":"device gpu-3 (GPU) installed in d0/s3"},` +
		`{"at":0,"severity":"info","message":"device gpu-2 in d0/s2 attached to H1 (host hostA)"}]` + "\n"
	if _, body := call(t, ts, "GET", "/api/events", "tok-root", nil); string(body) != want {
		t.Errorf("events body:\n%s\nwant:\n%s", body, want)
	}
}
