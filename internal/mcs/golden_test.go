package mcs

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the drain goldens in testdata/")

// TestFaultyDrainGolden pins what a faulty drain serves, byte for byte:
// every job's tenant trace slice, the admin /api/health body with an SLO
// installed, and the admin job list. Two tenants queue two jobs each and
// the admin drains them under an MTBF fault profile that kills jobs: two
// finish after checkpoint restores and two exhaust their retry budget, so
// kill, restore and fail spans all appear in the traces. Run with -update to rewrite testdata/faulty_drain/ after an
// intended change.
func TestFaultyDrainGolden(t *testing.T) {
	srv, ts := obsTestServer(t)
	if err := srv.SetSLO("p99-wait<=60s max-failed<=0 util>=0.1"); err != nil {
		t.Fatal(err)
	}
	for _, tok := range []string{"tok-alice", "tok-bob", "tok-alice", "tok-bob"} {
		if resp := doJSON(t, ts, "POST", "/api/jobs", tok,
			map[string]any{"workload": "ResNet-50", "gpus": 4, "iters": 25, "epochs": 4}, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit as %s: %d", tok, resp.StatusCode)
		}
	}
	var out struct {
		Kills int `json:"kills"`
	}
	if resp := doJSON(t, ts, "POST", "/api/jobs/run", "tok-root",
		map[string]any{"hosts": 2, "gpus": 8, "attachMs": 1, "mtbfMs": 3000, "faultSeed": 1}, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d", resp.StatusCode)
	}
	if out.Kills == 0 {
		t.Fatal("the fault profile killed no job; the pinned traces would miss the recovery path")
	}

	bodies := map[string]string{}
	for id := 0; id < 4; id++ {
		resp, body := get(t, ts, "/api/jobs/"+strconv.Itoa(id)+"/trace", "tok-root")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d trace: %d", id, resp.StatusCode)
		}
		bodies["job"+strconv.Itoa(id)+"_trace.json"] = body
	}
	_, bodies["health.json"] = get(t, ts, "/api/health", "tok-root")
	_, bodies["jobs.json"] = get(t, ts, "/api/jobs", "tok-root")

	dir := filepath.Join("testdata", "faulty_drain")
	for name, body := range bodies {
		path := filepath.Join(dir, name)
		if *update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if body != string(want) {
			t.Errorf("%s differs from %s:\n%s", name, path, body)
		}
	}
}
