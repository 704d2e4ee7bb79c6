package mcs

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"composable/internal/cluster"
	"composable/internal/falcon"
	"composable/internal/faults"
	"composable/internal/gpu"
	"composable/internal/obs"
	"composable/internal/orchestrator"
	"composable/internal/sim"
	"composable/internal/train"
)

// Fleet job API (§II-D extended): tenants submit training jobs to the
// management server's batch queue; an administrator drains the queue
// through the fleet orchestrator, which schedules the jobs onto a
// composed multi-host testbed with dynamic GPU recomposition and writes
// the per-job telemetry back into the records.
//
// Tenancy is enforced end to end: a user sees and submits only their own
// jobs (admins see all), each submitting user maps to a tenant host of
// the composed fleet, and draining the queue — a fleet-wide action — is
// admin-only.

// JobRecord is one submitted job and, once the queue has been run, its
// scheduling telemetry.
type JobRecord struct {
	ID    int    `json:"id"`
	Owner string `json:"owner"`

	Workload  string `json:"workload"`
	GPUs      int    `json:"gpus"`
	Precision string `json:"precision"` // fp16 | fp32
	Strategy  string `json:"strategy"`  // DDP | DP
	Sharded   bool   `json:"sharded"`
	Iters     int    `json:"iters"`
	Epochs    int    `json:"epochs"`

	Status string `json:"status"` // queued | done | failed
	// Scheduling telemetry, populated when Status is "done".
	Host      string `json:"host,omitempty"`
	Moves     int    `json:"moves,omitempty"`
	WaitMS    int64  `json:"waitMs"`
	RuntimeMS int64  `json:"runtimeMs"`
	// Fault-recovery telemetry (populated after a faulty run): attempts a
	// fault killed, the last failure cause, and the checkpointed epochs
	// the restarts resumed from.
	Retries     int    `json:"retries"`
	LastFailure string `json:"lastFailure,omitempty"`
	EpochsDone  int    `json:"epochsDone"`
}

// jobSubmitRequest is the POST /api/jobs body.
type jobSubmitRequest struct {
	Workload  string `json:"workload"`
	GPUs      int    `json:"gpus"`
	Precision string `json:"precision"`
	Strategy  string `json:"strategy"`
	Sharded   bool   `json:"sharded"`
	Iters     int    `json:"iters"`
	Epochs    int    `json:"epochs"`
}

// jobRunRequest is the POST /api/jobs/run body. Zero values pick the
// defaults (drawer policy on a 3-host × 12-GPU fleet, fault-free).
type jobRunRequest struct {
	Policy   string `json:"policy"`
	Hosts    int    `json:"hosts"`
	GPUs     int    `json:"gpus"`
	AttachMS int    `json:"attachMs"`
	// MtbfMS, when positive, drains the queue under a seeded fault
	// profile with that mean time between failures; FaultSeed selects
	// the schedule (0 = 1).
	MtbfMS    int   `json:"mtbfMs"`
	FaultSeed int64 `json:"faultSeed"`
}

// jobRunResponse summarizes a drained queue.
type jobRunResponse struct {
	Ran            int     `json:"ran"`
	Policy         string  `json:"policy"`
	MakespanMS     int64   `json:"makespanMs"`
	Recompositions int     `json:"recompositions"`
	Utilization    float64 `json:"utilization"`
	// Fault telemetry (zero on a fault-free drain).
	Faults         int     `json:"faults"`
	Kills          int     `json:"kills"`
	FailedJobs     int     `json:"failedJobs"`
	LostGPUSeconds float64 `json:"lostGpuSeconds"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request, u *User) {
	var req jobSubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := JobRecord{
		ID: len(s.jobs), Owner: u.Name, Status: "queued",
		Workload: req.Workload, GPUs: req.GPUs,
		Precision: req.Precision, Strategy: req.Strategy, Sharded: req.Sharded,
		Iters: req.Iters, Epochs: req.Epochs,
	}
	if rec.Workload == "" {
		rec.Workload = "ResNet-50"
	}
	if rec.Precision == "" {
		rec.Precision = "fp16"
	}
	if rec.Strategy == "" {
		rec.Strategy = "DDP"
	}
	if rec.Iters <= 0 {
		rec.Iters = 10
	}
	if rec.Epochs <= 0 {
		rec.Epochs = 1
	}
	s.jobs = append(s.jobs, rec)
	s.metrics.Inc(s.cJobsSubmitted)
	s.record(u, "job-submit", fmt.Sprintf("job %d: %s ×%d", rec.ID, rec.Workload, rec.GPUs), "queued")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, rec)
}

// visibleTo reports whether a user may see a job record.
func visibleTo(u *User, rec *JobRecord) bool {
	return u.Role == RoleAdmin || rec.Owner == u.Name
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request, u *User) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []JobRecord{}
	for i := range s.jobs {
		if visibleTo(u, &s.jobs[i]) {
			out = append(out, s.jobs[i])
		}
	}
	writeJSON(w, out)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request, u *User) {
	id, err := strconv.Atoi(r.PathValue("id"))
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || id < 0 || id >= len(s.jobs) {
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
		return
	}
	if !visibleTo(u, &s.jobs[id]) {
		// 404, not 403: a tenant must not learn other tenants' job IDs.
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
		return
	}
	writeJSON(w, s.jobs[id])
}

// handleJobRun drains the queued jobs through the fleet orchestrator on a
// freshly composed testbed. Admin-only: scheduling recomposes GPUs across
// every tenant's hosts.
func (s *Server) handleJobRun(w http.ResponseWriter, r *http.Request, u *User) {
	var req jobRunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Policy == "" {
		req.Policy = "drawer"
	}
	if req.Hosts == 0 {
		req.Hosts = 3
	}
	if req.GPUs == 0 {
		req.GPUs = 12
	}
	pol, err := orchestrator.PolicyByName(req.Policy)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
		return
	}

	// Snapshot the queue under the lock, simulate unlocked (a long queue
	// can take a while and must not stall the whole API — auth itself
	// takes the server lock), then write telemetry back under the lock.
	// draining guards against two concurrent admins racing the same
	// queued records; job IDs are stable because s.jobs only appends.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, `{"error":"a queue drain is already in progress"}`, http.StatusConflict)
		return
	}
	// Queued jobs in submission order; each distinct owner becomes a
	// tenant host (round-robin beyond the host count).
	var queued []int
	var owners []string // distinct owners, first-submission order
	tenantOf := map[string]int{}
	for i := range s.jobs {
		if s.jobs[i].Status != "queued" {
			continue
		}
		if _, ok := tenantOf[s.jobs[i].Owner]; !ok {
			tenantOf[s.jobs[i].Owner] = len(tenantOf) % req.Hosts
			owners = append(owners, s.jobs[i].Owner)
		}
		queued = append(queued, i)
	}
	if len(queued) == 0 {
		s.mu.Unlock()
		http.Error(w, `{"error":"no queued jobs"}`, http.StatusConflict)
		return
	}
	specs := make([]orchestrator.JobSpec, 0, len(queued))
	for order, i := range queued {
		rec := &s.jobs[i]
		spec := orchestrator.JobSpec{
			Arrival:  time.Duration(order) * 100 * time.Millisecond,
			Tenant:   tenantOf[rec.Owner],
			GPUs:     rec.GPUs,
			Workload: rec.Workload,
			Strategy: train.Strategy(rec.Strategy),
			Sharded:  rec.Sharded,
			Epochs:   rec.Epochs, ItersPerEpoch: rec.Iters,
		}
		if rec.Precision == "fp16" {
			spec.Precision = gpu.FP16
		} else {
			spec.Precision = gpu.FP32
		}
		specs = append(specs, spec)
	}
	s.draining = true
	s.mu.Unlock()

	res, col, errStatus, runErr := runFleetQueue(req, pol, specs)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = false
	if runErr != nil {
		s.record(u, "job-run", req.Policy, "error: "+runErr.Error())
		http.Error(w, fmt.Sprintf(`{"error":%q}`, runErr.Error()), errStatus)
		return
	}
	s.metrics.Inc(s.cDrains)
	s.metrics.Add(s.cJobsRun, int64(len(queued)))
	ownerOf := make(map[int]string, len(queued))
	for order, i := range queued {
		// The orchestrator numbers jobs by stream position, so `order` is
		// the job attribute its spans carry.
		s.traces[i] = tenantTrace(col, order)
		ownerOf[order] = s.jobs[i].Owner
	}
	s.drain = drainSnapshot(col, res, owners, ownerOf, s.slo)
	for order, i := range queued {
		rec := &s.jobs[i]
		j := res.Jobs[order]
		rec.Moves = j.Moves
		rec.Retries = j.Retries
		rec.LastFailure = j.FailureCause
		rec.EpochsDone = j.EpochsDone
		rec.GPUs = j.GPUs // sanitized demand is the scheduled truth
		if j.Failed {
			rec.Status = "failed"
			rec.Host = ""
			rec.WaitMS, rec.RuntimeMS = 0, 0
			continue
		}
		rec.Status = "done"
		rec.Host = fmt.Sprintf("host%d", j.Host+1)
		rec.WaitMS = j.Wait.Milliseconds()
		rec.RuntimeMS = j.Runtime.Milliseconds()
	}
	s.record(u, "job-run", fmt.Sprintf("%d jobs via %s on %d hosts × %d GPUs",
		len(queued), req.Policy, req.Hosts, req.GPUs), "ok")
	writeJSON(w, jobRunResponse{
		Ran: len(queued), Policy: res.Policy,
		MakespanMS: res.Makespan.Milliseconds(), Recompositions: res.Recompositions,
		Utilization: res.Utilization,
		Faults:      res.Faults, Kills: res.Kills, FailedJobs: res.FailedJobs,
		LostGPUSeconds: res.LostGPUSeconds,
	})
}

// runFleetQueue composes a fresh fleet and drains the snapshot through
// the orchestrator with a span collector attached (every drain is traced;
// the per-job slices are what GET /api/jobs/{id}/trace serves). The
// fabric is not traced: flow spans carry no job attribute, so no served
// slice would hold one, and /api/health's analysis reads none. It holds
// no server state and takes no lock. On failure the returned status
// distinguishes a bad fleet description (400) from a scheduling failure
// (409).
func runFleetQueue(req jobRunRequest, pol orchestrator.Policy, specs []orchestrator.JobSpec) (*orchestrator.FleetResult, *obs.Collector, int, error) {
	env := sim.NewEnv()
	col := obs.NewCollector()
	col.Attach(env)
	fleet, err := cluster.ComposeFleet(env, cluster.FleetOptions{
		Hosts: req.Hosts, GPUs: req.GPUs, Preattach: pol.Name() == "static",
	})
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	latency := time.Duration(req.AttachMS) * time.Millisecond
	if req.AttachMS == 0 {
		latency = orchestrator.DefaultAttachLatency
	}
	var plan *faults.Plan
	if req.MtbfMS > 0 {
		seed := req.FaultSeed
		if seed == 0 {
			seed = 1
		}
		p := faults.PlanMTBF(seed, time.Duration(req.MtbfMS)*time.Millisecond, faults.Bounds{
			Slots: req.GPUs, SlotsPerDrawer: falcon.SlotsPerDrawer, Hosts: req.Hosts,
		})
		plan = &p
	}
	res, err := orchestrator.Run(fleet, specs, orchestrator.Options{
		Policy: pol, AttachLatency: latency, Faults: plan, Obs: col,
	})
	if err != nil {
		return nil, nil, http.StatusConflict, err
	}
	// Mark the drain itself on the control-plane track. No "job" attr, so
	// tenant-filtered traces are unchanged by it.
	id := col.Emit(obs.CatMCS, "drain", 0, sim.Time(res.Makespan))
	col.SetAttrStr(id, "policy", res.Policy)
	return res, col, 0, nil
}
