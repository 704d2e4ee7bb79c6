package falcon

import "fmt"

// Sensor readings mirror the OpenBMC/management-GUI monitoring surface
// (§II-B): temperatures per drawer and chassis, fan duty, and PCIe link
// health counters. Values are synthesized from chassis state — enough to
// exercise the management API.

// SensorReadings is a snapshot of the BMC's environmental monitoring.
type SensorReadings struct {
	ChassisTempC float64
	DrawerTempC  [NumDrawers]float64
	FanDutyPct   float64
}

// Thermal model constants: an idle drawer sits at ambient+10; each attached
// device adds heat; fans ramp with the hottest drawer.
const (
	ambientC       = 23.0
	idleDrawerRise = 10.0
	perDeviceRise  = 3.5
	fanBaseDuty    = 30.0
)

// Sensors synthesizes current readings from occupancy.
func (c *Chassis) Sensors() SensorReadings {
	var r SensorReadings
	hottest := 0.0
	for d := 0; d < NumDrawers; d++ {
		active := 0
		for s := 0; s < SlotsPerDrawer; s++ {
			if c.drawers[d].slots[s].port != "" {
				active++
			}
		}
		// float64(…) rounds the product, so no architecture fuses it (FMA).
		t := ambientC + idleDrawerRise + float64(perDeviceRise*float64(active))
		r.DrawerTempC[d] = t
		if t > hottest {
			hottest = t
		}
	}
	// float64(…) rounds the product, so no architecture fuses it (FMA).
	r.ChassisTempC = ambientC + float64((hottest-ambientC)*0.6)
	r.FanDutyPct = fanBaseDuty + float64((hottest-ambientC)*1.8)
	if r.FanDutyPct > 100 {
		r.FanDutyPct = 100
	}
	return r
}

// LinkHealth is the per-port PCIe health view (§II-B: "PCI-e Link Health,
// including accumulated error count").
type LinkHealth struct {
	Port        string
	LinkUp      bool
	Gen         int
	Lanes       int
	ErrorCount  int
	Description string
}

// PortHealth reports link health for all host ports. Error counts are
// synthetic but deterministic (a function of attach churn) so the
// management surface has realistic data.
func (c *Chassis) PortHealth() []LinkHealth {
	attachEvents := 0
	for i := range c.log {
		if c.log[i].severity() == SevInfo {
			attachEvents++
		}
	}
	var out []LinkHealth
	for _, p := range c.Ports() {
		h := LinkHealth{
			Port:   p.ID,
			LinkUp: p.Host != "",
			Gen:    4,
			Lanes:  p.Lanes,
			// Correctable error counters tick slowly with traffic and
			// retraining; model as a function of management activity.
			ErrorCount: attachEvents / 7,
		}
		if h.LinkUp {
			h.Description = fmt.Sprintf("x%d Gen%d to %s", h.Lanes, h.Gen, p.Host)
		} else {
			h.Description = "link down"
		}
		out = append(out, h)
	}
	return out
}
