// Package mcs implements the Management Center Server of §II-D: the
// multi-tenant control plane that lets partner users manage *their own*
// chassis resources over HTTP without touching the low-level management
// interface — "users can control their own environment, yet not have any
// access to other users' resources".
//
// The server wraps a falcon.Chassis. Authentication is bearer-token based
// (the enterprise deployment fronts this with SSO; tokens stand in for it),
// and every mutation is authorization-checked against host ownership and
// recorded in an audit log.
package mcs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"composable/internal/falcon"
	"composable/internal/obs"
	"composable/internal/obs/analyze"
)

// Role grades a user's privileges.
type Role string

// Roles.
const (
	RoleAdmin Role = "admin"
	RoleUser  Role = "user"
)

// User is one tenant of the composable environment.
type User struct {
	Name  string
	Role  Role
	Token string
	// Hosts the user owns; the user may only manage devices attached
	// (or attachable) to ports cabled to these hosts.
	Hosts []string
}

func (u *User) ownsHost(h string) bool {
	for _, x := range u.Hosts {
		if x == h {
			return true
		}
	}
	return false
}

// AuditEntry records one authenticated API action.
type AuditEntry struct {
	At     time.Time `json:"at"`
	User   string    `json:"user"`
	Action string    `json:"action"`
	Detail string    `json:"detail"`
	Result string    `json:"result"`
}

// Server is the MCS HTTP server state.
type Server struct {
	mu      sync.Mutex
	chassis *falcon.Chassis
	users   map[string]*User // by token
	audit   []AuditEntry
	clock   func() time.Time
	// jobs is the fleet batch queue (see jobs.go); draining marks an
	// in-flight queue drain so the records cannot be raced.
	jobs     []JobRecord
	draining bool
	// Observability (see obs.go): API counters and queue gauges served by
	// GET /metrics, and the per-job sim-time traces captured by the most
	// recent queue drain, keyed by job record ID. All guarded by mu.
	metrics                                          obs.Registry
	cJobsSubmitted, cJobsRun, cDrains, cAuthFailures obs.CounterID
	traces                                           map[int][]byte
	// SLO health (see health.go): the declarative SLO each drain is
	// scored against and the last drain's analytics snapshot.
	slo     analyze.SLO
	sloSpec string
	drain   *drainAnalytics
}

// NewServer wraps a chassis. Pass the tenant set up front; the admin role
// bypasses ownership checks.
func NewServer(ch *falcon.Chassis, users []User) *Server {
	// Audit-log timestamping is the server's one legitimate wall-clock
	// use; tests swap the clock for a fixed one, and this default is the
	// single annotated read.
	//lint:allow nowallclock(default audit-log clock; injected everywhere determinism matters)
	s := &Server{chassis: ch, users: make(map[string]*User), clock: time.Now,
		traces: make(map[int][]byte)}
	for i := range users {
		u := users[i]
		s.users[u.Token] = &u
	}
	s.initMetrics()
	return s
}

// Audit returns a copy of the audit log.
func (s *Server) Audit() []AuditEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]AuditEntry(nil), s.audit...)
}

func (s *Server) record(u *User, action, detail, result string) {
	s.audit = append(s.audit, AuditEntry{
		At: s.clock(), User: u.Name, Action: action, Detail: detail, Result: result,
	})
}

// Handler returns the HTTP mux for the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/topology", s.auth(s.handleTopology))
	mux.HandleFunc("GET /api/summary", s.auth(s.handleSummary))
	mux.HandleFunc("GET /api/sensors", s.auth(s.handleSensors))
	mux.HandleFunc("GET /api/health", s.auth(s.handleHealth))
	mux.HandleFunc("GET /api/events", s.auth(s.adminOnly(s.handleEvents)))
	mux.HandleFunc("GET /api/audit", s.auth(s.adminOnly(s.handleAudit)))
	mux.HandleFunc("GET /api/config", s.auth(s.adminOnly(s.handleExport)))
	mux.HandleFunc("GET /api/devices", s.auth(s.handleDevices))
	mux.HandleFunc("GET /api/traffic", s.auth(s.handleTraffic))
	mux.HandleFunc("POST /api/attach", s.auth(s.handleAttach))
	mux.HandleFunc("POST /api/detach", s.auth(s.handleDetach))
	mux.HandleFunc("POST /api/mode", s.auth(s.adminOnly(s.handleMode)))
	mux.HandleFunc("POST /api/jobs", s.auth(s.handleJobSubmit))
	mux.HandleFunc("GET /api/jobs", s.auth(s.handleJobList))
	mux.HandleFunc("GET /api/jobs/{id}", s.auth(s.handleJobGet))
	mux.HandleFunc("GET /api/jobs/{id}/trace", s.auth(s.handleJobTrace))
	mux.HandleFunc("POST /api/jobs/run", s.auth(s.adminOnly(s.handleJobRun)))
	mux.HandleFunc("GET /metrics", s.auth(s.handleMetrics))
	return mux
}

type handlerFunc func(w http.ResponseWriter, r *http.Request, u *User)

// auth resolves the bearer token to a user.
func (s *Server) auth(next handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tok := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
		s.mu.Lock()
		u := s.users[tok]
		if tok == "" || u == nil {
			s.metrics.Inc(s.cAuthFailures)
		}
		s.mu.Unlock()
		if tok == "" || u == nil {
			http.Error(w, `{"error":"unauthorized"}`, http.StatusUnauthorized)
			return
		}
		next(w, r, u)
	}
}

// adminOnly gates administrator endpoints (§II-B "administrator feature").
func (s *Server) adminOnly(next handlerFunc) handlerFunc {
	return func(w http.ResponseWriter, r *http.Request, u *User) {
		if u.Role != RoleAdmin {
			http.Error(w, `{"error":"admin role required"}`, http.StatusForbidden)
			return
		}
		next(w, r, u)
	}
}

// maxBodyBytes caps every request body. The largest legitimate body, a
// job submission, is a few hundred bytes.
const maxBodyBytes = 64 << 10

// decodeBody decodes r's JSON body into v. It answers 413 for a body over
// maxBodyBytes and 400 for any other malformed body, and reports whether
// the handler should go on.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, `{"error":"request body too large"}`, http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, `{"error":"bad request"}`, http.StatusBadRequest)
	}
	return false
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleTopology(w http.ResponseWriter, _ *http.Request, _ *User) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, map[string]string{"topology": s.chassis.Topology()})
}

func (s *Server) handleSummary(w http.ResponseWriter, _ *http.Request, _ *User) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, s.chassis.Summary())
}

func (s *Server) handleSensors(w http.ResponseWriter, _ *http.Request, _ *User) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, s.chassis.Sensors())
}

func (s *Server) handleEvents(w http.ResponseWriter, _ *http.Request, _ *User) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, s.chassis.Events())
}

func (s *Server) handleAudit(w http.ResponseWriter, _ *http.Request, _ *User) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, s.audit)
}

func (s *Server) handleExport(w http.ResponseWriter, _ *http.Request, _ *User) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := s.chassis.ExportConfig()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// deviceView is a slot as a tenant sees it.
type deviceView struct {
	Slot   falcon.SlotRef     `json:"slot"`
	Device *falcon.DeviceInfo `json:"device"`
	Port   string             `json:"port,omitempty"`
	Host   string             `json:"host,omitempty"`
	Yours  bool               `json:"yours"`
}

func (s *Server) handleDevices(w http.ResponseWriter, _ *http.Request, u *User) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []deviceView
	for _, ref := range s.chassis.Slots() {
		v := deviceView{Slot: ref, Device: s.chassis.Device(ref)}
		if port := s.chassis.Owner(ref); port != "" {
			v.Port = port
			if p, err := s.chassis.Port(port); err == nil {
				v.Host = p.Host
				v.Yours = u.Role == RoleAdmin || u.ownsHost(p.Host)
			}
		}
		out = append(out, v)
	}
	writeJSON(w, out)
}

func (s *Server) handleTraffic(w http.ResponseWriter, _ *http.Request, _ *User) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := s.chassis.PortTraffic()
	if rows == nil {
		rows = []falcon.PortTrafficRow{}
	}
	writeJSON(w, rows)
}

// attachRequest is the attach/detach body.
type attachRequest struct {
	Drawer int    `json:"drawer"`
	Slot   int    `json:"slot"`
	Port   string `json:"port,omitempty"`
}

func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request, u *User) {
	var req attachRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ref := falcon.SlotRef{Drawer: req.Drawer, Slot: req.Slot}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Authorization: the target port must be cabled to a host this user
	// owns (admins skip the check).
	if u.Role != RoleAdmin {
		port, err := s.chassis.Port(req.Port)
		if err != nil || !u.ownsHost(port.Host) {
			s.record(u, "attach", fmt.Sprintf("%v -> %s", ref, req.Port), "denied")
			http.Error(w, `{"error":"not your host"}`, http.StatusForbidden)
			return
		}
	}
	if err := s.chassis.Attach(ref, req.Port); err != nil {
		s.record(u, "attach", fmt.Sprintf("%v -> %s", ref, req.Port), "error: "+err.Error())
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusConflict)
		return
	}
	s.record(u, "attach", fmt.Sprintf("%v -> %s", ref, req.Port), "ok")
	writeJSON(w, map[string]string{"status": "attached"})
}

func (s *Server) handleDetach(w http.ResponseWriter, r *http.Request, u *User) {
	var req attachRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ref := falcon.SlotRef{Drawer: req.Drawer, Slot: req.Slot}
	s.mu.Lock()
	defer s.mu.Unlock()
	if u.Role != RoleAdmin {
		owner := s.chassis.Owner(ref)
		if owner == "" {
			http.Error(w, `{"error":"not attached"}`, http.StatusConflict)
			return
		}
		port, err := s.chassis.Port(owner)
		if err != nil || !u.ownsHost(port.Host) {
			s.record(u, "detach", ref.String(), "denied")
			http.Error(w, `{"error":"not your device"}`, http.StatusForbidden)
			return
		}
	}
	if err := s.chassis.Detach(ref); err != nil {
		s.record(u, "detach", ref.String(), "error: "+err.Error())
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusConflict)
		return
	}
	s.record(u, "detach", ref.String(), "ok")
	writeJSON(w, map[string]string{"status": "detached"})
}

// modeRequest switches a drawer's mode.
type modeRequest struct {
	Drawer int         `json:"drawer"`
	Mode   falcon.Mode `json:"mode"`
}

func (s *Server) handleMode(w http.ResponseWriter, r *http.Request, u *User) {
	var req modeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.chassis.SetMode(req.Drawer, req.Mode); err != nil {
		s.record(u, "mode", fmt.Sprintf("drawer %d -> %s", req.Drawer, req.Mode), "error: "+err.Error())
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusConflict)
		return
	}
	s.record(u, "mode", fmt.Sprintf("drawer %d -> %s", req.Drawer, req.Mode), "ok")
	writeJSON(w, map[string]string{"status": "ok"})
}
