// Package falcon models the Falcon 4016 composable chassis: a 4U PCIe
// Gen4 enclosure with two drawers of eight device slots each, four CDFP
// host ports, and a management plane (paper §II–§III).
//
// The package is the chassis *control plane*: which devices sit in which
// slots, which hosts own them, mode constraints, the event log and sensor
// readings. The *data plane* — links, bandwidth, contention — is built from
// this state by package cluster, which wires an equivalent fabric graph.
package falcon

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"composable/internal/units"
)

// Chassis geometry.
const (
	NumDrawers     = 2
	SlotsPerDrawer = 8
	NumHostPorts   = 4
	// MaxHostsAdvanced is the sharing limit in advanced mode (§II-C).
	MaxHostsAdvanced = 3
)

// DeviceType classifies a slot device.
type DeviceType string

// Device types the chassis accepts (§II-A).
const (
	DeviceGPU    DeviceType = "GPU"
	DeviceNVMe   DeviceType = "NVMe"
	DeviceNIC    DeviceType = "NIC"
	DeviceCustom DeviceType = "Custom" // custom PCIe 4.0 hardware
)

// DeviceInfo describes a device installed in a slot, mirroring the fields
// the management GUI shows in its resource list (§II-B).
type DeviceInfo struct {
	ID       string     `json:"id"`
	Type     DeviceType `json:"type"`
	Model    string     `json:"model"`
	VendorID string     `json:"vendorId"`
	LinkGen  int        `json:"linkGen"`
	Lanes    int        `json:"lanes"`
}

// Mode is a drawer's operating mode (§II-C, §III-B).
type Mode string

// Drawer modes.
const (
	// ModeStandardOneHost: one host accesses all eight devices (or one
	// host uses two connections of four devices each).
	ModeStandardOneHost Mode = "standard-1host"
	// ModeStandardTwoHost: two hosts, four devices each (split by drawer
	// half).
	ModeStandardTwoHost Mode = "standard-2host"
	// ModeAdvanced: up to three hosts share the drawer's devices in any
	// distribution; devices may be re-allocated dynamically.
	ModeAdvanced Mode = "advanced"
)

// SlotRef addresses one slot.
type SlotRef struct {
	Drawer int `json:"drawer"`
	Slot   int `json:"slot"`
}

func (r SlotRef) String() string { return fmt.Sprintf("d%d/s%d", r.Drawer, r.Slot) }

func (r SlotRef) valid() bool {
	return r.Drawer >= 0 && r.Drawer < NumDrawers && r.Slot >= 0 && r.Slot < SlotsPerDrawer
}

// slot is the internal slot state.
type slot struct {
	device *DeviceInfo
	port   string // owning host port ID, "" when detached
	// traffic is the slot's port-traffic source (SetTrafficSource), nil
	// when the slot is not monitored.
	traffic TrafficFunc
}

// portIDs are the host port IDs, in port order.
var portIDs = [NumHostPorts]string{"H1", "H2", "H3", "H4"}

// PortID returns the ID of host port n, counting from 1 ("H1" for n = 1).
func PortID(n int) string { return portIDs[n-1] }

// HostPort is one of the four CDFP host connections (H1–H4).
type HostPort struct {
	ID   string `json:"id"`
	Host string `json:"host"` // cabled host name, "" when uncabled
	// Lanes configured on the port (§II-B "port type and lanes").
	Lanes int `json:"lanes"`
}

// Severity grades event-log entries.
type Severity string

// Event severities.
const (
	SevInfo    Severity = "info"
	SevWarning Severity = "warning"
	SevError   Severity = "error"
)

// Event is one management-plane log entry (§II-B "event logs").
type Event struct {
	At       time.Duration `json:"at"` // management-clock timestamp
	Severity Severity      `json:"severity"`
	Message  string        `json:"message"`
}

// Chassis is one Falcon 4016.
type Chassis struct {
	Name string

	drawers [NumDrawers]struct {
		mode  Mode
		slots [SlotsPerDrawer]slot
	}
	ports [NumHostPorts]HostPort // in port order, H1 first
	log   []logEntry

	// Now supplies management-clock timestamps; the cluster layer binds
	// it to the simulation clock. Defaults to a zero clock.
	Now func() time.Duration

	// onChange observers (the MCS and the cluster layer subscribe).
	observers []func(ev string, slot SlotRef)
}

// New creates a chassis with all drawers in standard one-host mode and the
// four host ports uncabled.
func New(name string) *Chassis {
	c := &Chassis{Name: name, Now: func() time.Duration { return 0 }}
	for d := 0; d < NumDrawers; d++ {
		c.drawers[d].mode = ModeStandardOneHost
	}
	for i, id := range portIDs {
		c.ports[i] = HostPort{ID: id, Lanes: 16}
	}
	return c
}

// Observe registers a callback invoked after each state change with the
// event kind ("install", "remove", "attach", "detach", "mode") and slot.
func (c *Chassis) Observe(fn func(ev string, slot SlotRef)) { c.observers = append(c.observers, fn) }

func (c *Chassis) notify(ev string, ref SlotRef) {
	for _, fn := range c.observers {
		fn(ev, ref)
	}
}

// logKind is what an event-log entry records.
type logKind uint8

// Event-log kinds. The text kinds carry a message formatted when it was
// logged; they cover the rare entries (rejected attaches, thermal alerts,
// the import marker), so the frequent ones never format on the way in.
const (
	logCable   logKind = iota // str: host cabled to port
	logMode                   // str: the drawer's new mode
	logInstall                // dev installed in the slot
	logRemove                 // dev removed from the slot
	logAttach                 // dev attached to port; str: the port's host
	logDetach                 // dev detached from port
	logInfo                   // str: an info message
	logWarning                // str: a warning message
)

// logEntry is one event-log entry in typed form, formatted into an Event
// only when the log is read (Events). It keeps the installed device by
// pointer: a slot's DeviceInfo is the chassis's own copy and is never
// changed after Install, so the entry still reads the logged device after
// a later Remove. 56 bytes on 64-bit platforms.
type logEntry struct {
	at           time.Duration
	dev          *DeviceInfo
	port         string
	str          string
	kind         logKind
	drawer, slot uint8
}

func (c *Chassis) logEvent(kind logKind, ref SlotRef, dev *DeviceInfo, port, str string) {
	c.log = append(c.log, logEntry{
		at: c.Now(), dev: dev, port: port, str: str,
		kind: kind, drawer: uint8(ref.Drawer), slot: uint8(ref.Slot),
	})
}

// warnf logs a warning, formatted on the way in: warnings are rare.
func (c *Chassis) warnf(format string, args ...interface{}) {
	c.logEvent(logWarning, SlotRef{}, nil, "", fmt.Sprintf(format, args...))
}

// severity grades the entry: the text kinds carry their own, every typed
// kind is informational.
func (e *logEntry) severity() Severity {
	if e.kind == logWarning {
		return SevWarning
	}
	return SevInfo
}

// message formats the entry as the management GUI shows it.
func (e *logEntry) message() string {
	ref := SlotRef{Drawer: int(e.drawer), Slot: int(e.slot)}
	switch e.kind {
	case logCable:
		return fmt.Sprintf("host %s cabled to port %s", e.str, e.port)
	case logMode:
		return fmt.Sprintf("drawer %d mode set to %s", ref.Drawer, e.str)
	case logInstall:
		return fmt.Sprintf("device %s (%s) installed in %v", e.dev.ID, e.dev.Type, ref)
	case logRemove:
		return fmt.Sprintf("device %s removed from %v", e.dev.ID, ref)
	case logAttach:
		return fmt.Sprintf("device %s in %v attached to %s (host %s)", e.dev.ID, ref, e.port, e.str)
	case logDetach:
		return fmt.Sprintf("device %s in %v detached from %s", e.dev.ID, ref, e.port)
	default:
		return e.str
	}
}

// Events returns the event log, formatted; nil when the log is empty.
func (c *Chassis) Events() []Event {
	if len(c.log) == 0 {
		return nil
	}
	out := make([]Event, len(c.log))
	for i := range c.log {
		e := &c.log[i]
		out[i] = Event{At: e.at, Severity: e.severity(), Message: e.message()}
	}
	return out
}

// port returns the host port with the given ID, or nil.
func (c *Chassis) port(id string) *HostPort {
	for i := range c.ports {
		if c.ports[i].ID == id {
			return &c.ports[i]
		}
	}
	return nil
}

// Port returns a host port by ID (H1–H4).
func (c *Chassis) Port(id string) (*HostPort, error) {
	p := c.port(id)
	if p == nil {
		return nil, fmt.Errorf("falcon: no host port %q", id)
	}
	return p, nil
}

// Ports returns the host ports sorted by ID.
func (c *Chassis) Ports() []*HostPort {
	out := make([]*HostPort, len(c.ports))
	for i := range c.ports {
		out[i] = &c.ports[i]
	}
	return out
}

// CableHost records that a host is cabled to a port.
func (c *Chassis) CableHost(portID, host string) error {
	p, err := c.Port(portID)
	if err != nil {
		return err
	}
	p.Host = host
	c.logEvent(logCable, SlotRef{}, nil, p.ID, host)
	return nil
}

// SetMode switches a drawer's operating mode. All devices in the drawer
// must be detached first: mode switches re-partition the PCIe switch.
func (c *Chassis) SetMode(drawer int, m Mode) error {
	if drawer < 0 || drawer >= NumDrawers {
		return fmt.Errorf("falcon: no drawer %d", drawer)
	}
	switch m {
	case ModeStandardOneHost, ModeStandardTwoHost, ModeAdvanced:
	default:
		return fmt.Errorf("falcon: unknown mode %q", m)
	}
	for s := range c.drawers[drawer].slots {
		if c.drawers[drawer].slots[s].port != "" {
			return fmt.Errorf("falcon: drawer %d has attached devices; detach before changing mode", drawer)
		}
	}
	c.drawers[drawer].mode = m
	c.logEvent(logMode, SlotRef{Drawer: drawer}, nil, "", string(m))
	c.notify("mode", SlotRef{Drawer: drawer})
	return nil
}

// Install seats a device in an empty slot.
func (c *Chassis) Install(ref SlotRef, dev DeviceInfo) error {
	if !ref.valid() {
		return fmt.Errorf("falcon: invalid slot %v", ref)
	}
	s := &c.drawers[ref.Drawer].slots[ref.Slot]
	if s.device != nil {
		return fmt.Errorf("falcon: slot %v occupied by %s", ref, s.device.ID)
	}
	d := dev
	s.device = &d
	c.logEvent(logInstall, ref, s.device, "", "")
	c.notify("install", ref)
	return nil
}

// Remove unseats the device in a slot; it must be detached.
func (c *Chassis) Remove(ref SlotRef) error {
	if !ref.valid() {
		return fmt.Errorf("falcon: invalid slot %v", ref)
	}
	s := &c.drawers[ref.Drawer].slots[ref.Slot]
	if s.device == nil {
		return fmt.Errorf("falcon: slot %v empty", ref)
	}
	if s.port != "" {
		return fmt.Errorf("falcon: device in %v still attached to %s", ref, s.port)
	}
	c.logEvent(logRemove, ref, s.device, "", "")
	s.device = nil
	c.notify("remove", ref)
	return nil
}

// Device returns the device in a slot, or nil.
func (c *Chassis) Device(ref SlotRef) *DeviceInfo {
	if !ref.valid() {
		return nil
	}
	return c.drawers[ref.Drawer].slots[ref.Slot].device
}

// Owner returns the host port owning the slot's device ("" if detached).
func (c *Chassis) Owner(ref SlotRef) string {
	if !ref.valid() {
		return ""
	}
	return c.drawers[ref.Drawer].slots[ref.Slot].port
}

// Attach assigns the device in ref to the host cabled at portID, enforcing
// the drawer's mode constraints.
func (c *Chassis) Attach(ref SlotRef, portID string) error {
	if !ref.valid() {
		return fmt.Errorf("falcon: invalid slot %v", ref)
	}
	port, err := c.Port(portID)
	if err != nil {
		return err
	}
	if port.Host == "" {
		return fmt.Errorf("falcon: port %s is not cabled to a host", portID)
	}
	s := &c.drawers[ref.Drawer].slots[ref.Slot]
	if s.device == nil {
		return fmt.Errorf("falcon: slot %v is empty", ref)
	}
	if s.port != "" {
		return fmt.Errorf("falcon: device %s already attached to %s", s.device.ID, s.port)
	}
	if err := c.checkModeConstraint(ref, portID); err != nil {
		c.warnf("attach %v to %s rejected: %v", ref, portID, err)
		return err
	}
	s.port = portID
	c.logEvent(logAttach, ref, s.device, port.ID, port.Host)
	c.notify("attach", ref)
	return nil
}

// checkModeConstraint validates an attach against the drawer mode.
func (c *Chassis) checkModeConstraint(ref SlotRef, portID string) error {
	d := &c.drawers[ref.Drawer]
	// The ports and hosts the drawer would serve, collected in one ordered
	// walk over its slots.
	portsInUse := map[string]bool{portID: true}
	hosts := map[string]bool{c.port(portID).Host: true}
	for i := range d.slots {
		if p := d.slots[i].port; p != "" {
			portsInUse[p] = true
			hosts[c.port(p).Host] = true
		}
	}
	switch d.mode {
	case ModeStandardOneHost:
		// All devices go to one host; the host may use two connections,
		// but each connection serves one fixed half of the drawer.
		if len(hosts) > 1 {
			return fmt.Errorf("mode %s allows a single host per drawer", d.mode)
		}
		if len(portsInUse) > 2 {
			return fmt.Errorf("mode %s allows at most two connections per drawer", d.mode)
		}
		if len(portsInUse) == 2 {
			if err := c.checkHalfSplit(ref, portID); err != nil {
				return err
			}
		}
	case ModeStandardTwoHost:
		if len(portsInUse) > 2 {
			return fmt.Errorf("mode %s allows at most two hosts per drawer", d.mode)
		}
		if err := c.checkHalfSplit(ref, portID); err != nil {
			return err
		}
	case ModeAdvanced:
		if len(hosts) > MaxHostsAdvanced {
			return fmt.Errorf("mode %s allows at most %d hosts per drawer", d.mode, MaxHostsAdvanced)
		}
	}
	return nil
}

// checkHalfSplit enforces that in standard modes a port serves only one
// fixed half of a drawer (slots 0–3 or 4–7): the PCIe switch partitions at
// half-drawer granularity.
func (c *Chassis) checkHalfSplit(ref SlotRef, portID string) error {
	d := &c.drawers[ref.Drawer]
	newHalf := ref.Slot / (SlotsPerDrawer / 2)
	for i := range d.slots {
		if d.slots[i].port == "" || i == ref.Slot {
			continue
		}
		half := i / (SlotsPerDrawer / 2)
		samePort := d.slots[i].port == portID
		if samePort && half != newHalf {
			return fmt.Errorf("standard mode partitions the drawer in halves: port %s already serves slots %d-%d",
				portID, half*4, half*4+3)
		}
		if !samePort && half == newHalf {
			return fmt.Errorf("standard mode partitions the drawer in halves: slots %d-%d already served by %s",
				newHalf*4, newHalf*4+3, d.slots[i].port)
		}
	}
	return nil
}

// Detach releases the device in ref from its host.
func (c *Chassis) Detach(ref SlotRef) error {
	if !ref.valid() {
		return fmt.Errorf("falcon: invalid slot %v", ref)
	}
	s := &c.drawers[ref.Drawer].slots[ref.Slot]
	if s.device == nil {
		return fmt.Errorf("falcon: slot %v is empty", ref)
	}
	if s.port == "" {
		return fmt.Errorf("falcon: device %s is not attached", s.device.ID)
	}
	c.logEvent(logDetach, ref, s.device, s.port, "")
	s.port = ""
	c.notify("detach", ref)
	return nil
}

// Reassign moves a device to another host port without an intermediate
// detach. Only advanced mode supports on-the-fly re-allocation (§III-B-3).
func (c *Chassis) Reassign(ref SlotRef, portID string) error {
	if !ref.valid() {
		return fmt.Errorf("falcon: invalid slot %v", ref)
	}
	if c.drawers[ref.Drawer].mode != ModeAdvanced {
		return fmt.Errorf("falcon: dynamic re-allocation requires advanced mode (drawer %d is %s)",
			ref.Drawer, c.drawers[ref.Drawer].mode)
	}
	s := &c.drawers[ref.Drawer].slots[ref.Slot]
	if s.device == nil {
		return fmt.Errorf("falcon: slot %v is empty", ref)
	}
	old := s.port
	s.port = ""
	if err := c.Attach(ref, portID); err != nil {
		s.port = old
		return err
	}
	return nil
}

// AttachedToHost returns slots attached to any port cabled to host.
func (c *Chassis) AttachedToHost(host string) []SlotRef {
	var out []SlotRef
	for d := 0; d < NumDrawers; d++ {
		for s := 0; s < SlotsPerDrawer; s++ {
			p := c.drawers[d].slots[s].port
			if p != "" && c.port(p).Host == host {
				out = append(out, SlotRef{Drawer: d, Slot: s})
			}
		}
	}
	return out
}

// Slots returns every occupied slot.
func (c *Chassis) Slots() []SlotRef {
	var out []SlotRef
	for d := 0; d < NumDrawers; d++ {
		for s := 0; s < SlotsPerDrawer; s++ {
			if c.drawers[d].slots[s].device != nil {
				out = append(out, SlotRef{Drawer: d, Slot: s})
			}
		}
	}
	return out
}

// ResourceSummary is the GUI's resource-list view (§II-B).
type ResourceSummary struct {
	GPUs, NVMes, NICs, Custom int
	Attached, Free            int
	HostLinks                 int
}

// Summary computes the resource-list counters.
func (c *Chassis) Summary() ResourceSummary {
	var sum ResourceSummary
	for d := 0; d < NumDrawers; d++ {
		for s := 0; s < SlotsPerDrawer; s++ {
			sl := c.drawers[d].slots[s]
			if sl.device == nil {
				continue
			}
			switch sl.device.Type {
			case DeviceGPU:
				sum.GPUs++
			case DeviceNVMe:
				sum.NVMes++
			case DeviceNIC:
				sum.NICs++
			default:
				sum.Custom++
			}
			if sl.port != "" {
				sum.Attached++
			} else {
				sum.Free++
			}
		}
	}
	for _, p := range c.ports {
		if p.Host != "" {
			sum.HostLinks++
		}
	}
	return sum
}

// configFile is the JSON import/export schema (§II-B "import or export
// resource allocation as a configuration file").
type configFile struct {
	Name    string      `json:"name"`
	Drawers []drawerCfg `json:"drawers"`
	Ports   []*HostPort `json:"ports"`
}

type drawerCfg struct {
	Mode  Mode      `json:"mode"`
	Slots []slotCfg `json:"slots"`
}

type slotCfg struct {
	Slot   int         `json:"slot"`
	Device *DeviceInfo `json:"device,omitempty"`
	Port   string      `json:"port,omitempty"`
}

// ExportConfig serializes the full allocation state.
func (c *Chassis) ExportConfig() ([]byte, error) {
	cf := configFile{Name: c.Name, Ports: c.Ports()}
	for d := 0; d < NumDrawers; d++ {
		dc := drawerCfg{Mode: c.drawers[d].mode}
		for s := 0; s < SlotsPerDrawer; s++ {
			sl := c.drawers[d].slots[s]
			if sl.device == nil {
				continue
			}
			dc.Slots = append(dc.Slots, slotCfg{Slot: s, Device: sl.device, Port: sl.port})
		}
		cf.Drawers = append(cf.Drawers, dc)
	}
	return json.MarshalIndent(cf, "", "  ")
}

// ImportConfig replays an exported allocation into an empty chassis,
// validating every step through the normal attach path.
func (c *Chassis) ImportConfig(data []byte) error {
	var cf configFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return fmt.Errorf("falcon: bad config: %w", err)
	}
	if len(cf.Drawers) > NumDrawers {
		return fmt.Errorf("falcon: config has %d drawers; chassis has %d", len(cf.Drawers), NumDrawers)
	}
	for _, p := range cf.Ports {
		if p.Host != "" {
			if err := c.CableHost(p.ID, p.Host); err != nil {
				return err
			}
		}
	}
	for di, dc := range cf.Drawers {
		if err := c.SetMode(di, dc.Mode); err != nil {
			return err
		}
		for _, sc := range dc.Slots {
			if sc.Device == nil {
				continue
			}
			ref := SlotRef{Drawer: di, Slot: sc.Slot}
			if err := c.Install(ref, *sc.Device); err != nil {
				return err
			}
			if sc.Port != "" {
				if err := c.Attach(ref, sc.Port); err != nil {
					return err
				}
			}
		}
	}
	c.logEvent(logInfo, SlotRef{}, nil, "", "configuration imported")
	return nil
}

// Topology renders the list/topology view of the management GUI.
func (c *Chassis) Topology() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Falcon 4016 %q\n", c.Name)
	for _, p := range c.Ports() {
		host := p.Host
		if host == "" {
			host = "(uncabled)"
		}
		fmt.Fprintf(&b, "  port %s x%d -> %s\n", p.ID, p.Lanes, host)
	}
	for d := 0; d < NumDrawers; d++ {
		fmt.Fprintf(&b, "  drawer %d [%s]\n", d, c.drawers[d].mode)
		for s := 0; s < SlotsPerDrawer; s++ {
			sl := c.drawers[d].slots[s]
			switch {
			case sl.device == nil:
				fmt.Fprintf(&b, "    s%d: (empty)\n", s)
			case sl.port == "":
				fmt.Fprintf(&b, "    s%d: %-22s %-6s free\n", s, sl.device.Model, sl.device.Type)
			default:
				fmt.Fprintf(&b, "    s%d: %-22s %-6s -> %s (%s)\n",
					s, sl.device.Model, sl.device.Type, sl.port, c.port(sl.port).Host)
			}
		}
	}
	return b.String()
}

// TrafficFunc reports a slot's cumulative ingress/egress bytes; the
// composition layer binds it to the fabric's port counters.
type TrafficFunc func() (in, out units.Bytes)

// SetTrafficSource wires a slot's traffic counters for the management
// GUI's port-traffic monitoring (§II-B). A source for a slot outside the
// chassis is ignored.
func (c *Chassis) SetTrafficSource(ref SlotRef, fn TrafficFunc) {
	if ref.valid() {
		c.drawers[ref.Drawer].slots[ref.Slot].traffic = fn
	}
}

// PortTrafficRow is one slot's traffic view.
type PortTrafficRow struct {
	Slot     SlotRef     `json:"slot"`
	Device   string      `json:"device"`
	Ingress  units.Bytes `json:"ingressBytes"`
	Egress   units.Bytes `json:"egressBytes"`
	Attached string      `json:"attachedTo,omitempty"`
}

// PortTraffic returns the traffic view for every monitored slot, in slot
// order.
func (c *Chassis) PortTraffic() []PortTrafficRow {
	var out []PortTrafficRow
	for d := 0; d < NumDrawers; d++ {
		for s := 0; s < SlotsPerDrawer; s++ {
			sl := &c.drawers[d].slots[s]
			if sl.traffic == nil {
				continue
			}
			in, eg := sl.traffic()
			row := PortTrafficRow{Slot: SlotRef{Drawer: d, Slot: s}, Ingress: in, Egress: eg, Attached: sl.port}
			if sl.device != nil {
				row.Device = sl.device.ID
			}
			out = append(out, row)
		}
	}
	return out
}
