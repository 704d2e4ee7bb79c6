package mcs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"composable/internal/falcon"
)

func jobsTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ch := falcon.New("jobs-test")
	srv := NewServer(ch, []User{
		{Name: "root", Role: RoleAdmin, Token: "tok-root"},
		{Name: "alice", Role: RoleUser, Token: "tok-alice", Hosts: []string{"host1"}},
		{Name: "bob", Role: RoleUser, Token: "tok-bob", Hosts: []string{"host2"}},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// auditLog reads the audit log through the admin API.
func auditLog(t *testing.T, ts *httptest.Server) []AuditEntry {
	t.Helper()
	var log []AuditEntry
	if resp := doJSON(t, ts, "GET", "/api/audit", "tok-root", nil, &log); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/audit: %d", resp.StatusCode)
	}
	return log
}

func doJSON(t *testing.T, ts *httptest.Server, method, path, token string, body any, out any) *http.Response {
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
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, path, err)
		}
	}
	return resp
}

func TestJobSubmitListTenancy(t *testing.T) {
	ts := jobsTestServer(t)

	// Unauthenticated submit is rejected.
	if resp := doJSON(t, ts, "POST", "/api/jobs", "", map[string]any{}, nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated submit: %d", resp.StatusCode)
	}

	var a, b JobRecord
	if resp := doJSON(t, ts, "POST", "/api/jobs", "tok-alice",
		map[string]any{"workload": "ResNet-50", "gpus": 4, "iters": 3}, &a); resp.StatusCode != http.StatusCreated {
		t.Fatalf("alice submit: %d", resp.StatusCode)
	}
	if resp := doJSON(t, ts, "POST", "/api/jobs", "tok-bob",
		map[string]any{"workload": "BERT", "gpus": 2, "iters": 3}, &b); resp.StatusCode != http.StatusCreated {
		t.Fatalf("bob submit: %d", resp.StatusCode)
	}
	if a.Owner != "alice" || a.Status != "queued" || b.Owner != "bob" {
		t.Fatalf("records: %+v %+v", a, b)
	}

	// Tenancy: alice lists only her own jobs; admin sees both.
	var aliceList, adminList []JobRecord
	doJSON(t, ts, "GET", "/api/jobs", "tok-alice", nil, &aliceList)
	doJSON(t, ts, "GET", "/api/jobs", "tok-root", nil, &adminList)
	if len(aliceList) != 1 || aliceList[0].Owner != "alice" {
		t.Errorf("alice sees %+v", aliceList)
	}
	if len(adminList) != 2 {
		t.Errorf("admin sees %+v", adminList)
	}

	// Tenancy on the status endpoint: bob's job is invisible to alice
	// (404, indistinguishable from nonexistent).
	if resp := doJSON(t, ts, "GET", "/api/jobs/1", "tok-alice", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("alice reading bob's job: %d, want 404", resp.StatusCode)
	}
	var got JobRecord
	if resp := doJSON(t, ts, "GET", "/api/jobs/1", "tok-bob", nil, &got); resp.StatusCode != http.StatusOK || got.ID != 1 {
		t.Errorf("bob reading his job: %d %+v", resp.StatusCode, got)
	}
}

func TestJobRunIsAdminOnlyAndFillsTelemetry(t *testing.T) {
	ts := jobsTestServer(t)
	for _, sub := range []struct {
		token string
		body  map[string]any
	}{
		{"tok-alice", map[string]any{"workload": "ResNet-50", "gpus": 4, "iters": 3}},
		{"tok-alice", map[string]any{"workload": "MobileNetV2", "gpus": 2, "iters": 3}},
		{"tok-bob", map[string]any{"workload": "BERT", "gpus": 2, "iters": 3}},
	} {
		if resp := doJSON(t, ts, "POST", "/api/jobs", sub.token, sub.body, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit: %d", resp.StatusCode)
		}
	}

	// A tenant may not drain the fleet queue.
	if resp := doJSON(t, ts, "POST", "/api/jobs/run", "tok-alice", map[string]any{}, nil); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("alice running the queue: %d, want 403", resp.StatusCode)
	}
	// Unknown policy is rejected.
	if resp := doJSON(t, ts, "POST", "/api/jobs/run", "tok-root",
		map[string]any{"policy": "wishful"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad policy: %d, want 400", resp.StatusCode)
	}

	var sum jobRunResponse
	if resp := doJSON(t, ts, "POST", "/api/jobs/run", "tok-root",
		map[string]any{"policy": "drawer", "hosts": 2, "gpus": 8}, &sum); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d", resp.StatusCode)
	}
	if sum.Ran != 3 || sum.Policy != "drawer" || sum.MakespanMS <= 0 {
		t.Fatalf("run summary %+v", sum)
	}

	var all []JobRecord
	doJSON(t, ts, "GET", "/api/jobs", "tok-root", nil, &all)
	for _, rec := range all {
		if rec.Status != "done" || rec.Host == "" || rec.RuntimeMS <= 0 {
			t.Errorf("job %d not filled in: %+v", rec.ID, rec)
		}
	}

	// An empty queue cannot be drained twice.
	if resp := doJSON(t, ts, "POST", "/api/jobs/run", "tok-root", map[string]any{}, nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("second run: %d, want 409", resp.StatusCode)
	}
}

// TestJobRunWithFaultProfile drains the queue under a seeded fault
// profile and checks the fault-recovery telemetry lands in the records:
// retry counts, last failure cause, checkpoint progress — and that the
// tenancy rule (404, not 403) still holds for the enriched status.
func TestJobRunWithFaultProfile(t *testing.T) {
	ts := jobsTestServer(t)
	for i := 0; i < 2; i++ {
		if resp := doJSON(t, ts, "POST", "/api/jobs", "tok-alice",
			map[string]any{"workload": "ResNet-50", "gpus": 4, "iters": 25, "epochs": 4}, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
	}
	var out struct {
		Ran    int `json:"ran"`
		Faults int `json:"faults"`
		Kills  int `json:"kills"`
	}
	if resp := doJSON(t, ts, "POST", "/api/jobs/run", "tok-root",
		map[string]any{"hosts": 2, "gpus": 8, "attachMs": 1, "mtbfMs": 1500, "faultSeed": 1}, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d", resp.StatusCode)
	}
	if out.Ran != 2 || out.Faults == 0 {
		t.Fatalf("faulty drain: %+v", out)
	}
	if out.Kills == 0 {
		t.Fatalf("fault profile produced no kills; telemetry below is vacuous: %+v", out)
	}

	// The enriched status is visible to the owner…
	var rec JobRecord
	if resp := doJSON(t, ts, "GET", "/api/jobs/0", "tok-alice", nil, &rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner status: %d", resp.StatusCode)
	}
	if rec.Status != "done" && rec.Status != "failed" {
		t.Errorf("status %q after drain", rec.Status)
	}
	totalRetries := 0
	var all []JobRecord
	doJSON(t, ts, "GET", "/api/jobs", "tok-root", nil, &all)
	for _, r := range all {
		totalRetries += r.Retries
		if r.Retries > 0 && r.LastFailure == "" {
			t.Errorf("job %d retried %d times with no recorded cause", r.ID, r.Retries)
		}
		if r.Status == "failed" && (r.Host != "" || r.RuntimeMS != 0) {
			t.Errorf("failed job %d carries completion telemetry: %+v", r.ID, r)
		}
	}
	if totalRetries != out.Kills {
		t.Errorf("record retries sum %d != reported kills %d", totalRetries, out.Kills)
	}

	// …and still a 404 (not 403) to other tenants.
	if resp := doJSON(t, ts, "GET", "/api/jobs/0", "tok-bob", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("bob reading alice's job after faulty drain: %d, want 404", resp.StatusCode)
	}
}

// TestOversizedBodyRejected sends a job submission past maxBodyBytes: the
// daemon answers 413 and neither the job list nor the audit log changes.
func TestOversizedBodyRejected(t *testing.T) {
	srv := NewServer(falcon.New("body-test"), []User{
		{Name: "root", Role: RoleAdmin, Token: "tok-root"},
		{Name: "alice", Role: RoleUser, Token: "tok-alice", Hosts: []string{"host1"}},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if resp := doJSON(t, ts, "POST", "/api/jobs", "tok-alice",
		map[string]any{"workload": "ResNet-50", "gpus": 2, "iters": 3}, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("small submit: %d", resp.StatusCode)
	}
	audit := auditLog(t, ts)
	var before []JobRecord
	doJSON(t, ts, "GET", "/api/jobs", "tok-alice", nil, &before)

	huge := map[string]any{"workload": strings.Repeat("x", 2*maxBodyBytes), "gpus": 2, "iters": 3}
	if resp := doJSON(t, ts, "POST", "/api/jobs", "tok-alice", huge, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: %d, want 413", resp.StatusCode)
	}
	var after []JobRecord
	doJSON(t, ts, "GET", "/api/jobs", "tok-alice", nil, &after)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("job list changed:\nbefore %+v\nafter  %+v", before, after)
	}
	if got := auditLog(t, ts); !reflect.DeepEqual(audit, got) {
		t.Errorf("audit log changed:\nbefore %+v\nafter  %+v", audit, got)
	}
}

// TestStrandedDrainConflicts drains a queue the static policy cannot
// place (an 8-GPU job against 4-GPU shares): the traced drain must
// return a 409 instead of running forever.
func TestStrandedDrainConflicts(t *testing.T) {
	ts := jobsTestServer(t)
	if resp := doJSON(t, ts, "POST", "/api/jobs", "tok-alice", map[string]any{"gpus": 8, "iters": 2}, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if resp := doJSON(t, ts, "POST", "/api/jobs/run", "tok-root",
		map[string]any{"policy": "static", "hosts": 3, "gpus": 12}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("stranded drain: %d, want 409", resp.StatusCode)
	}
}
