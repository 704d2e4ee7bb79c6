package falcon

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"composable/internal/units"
)

// goldenChassis drives every event-log kind through the public API: host
// cabling, mode switches, installs of each device type, attaches,
// rejected attaches (a half-split and an advanced-mode host limit),
// re-assignment, detach, removal and two thermal alerts. Each step
// advances the management clock by 1.5 ms, so every entry's timestamp is
// distinct. It also returns the link-health error count after each step,
// one digit per step: the count is the info entries over seven, so the
// digits change exactly where the seventh and fourteenth info entry land.
func goldenChassis(t *testing.T) (*Chassis, string) {
	t.Helper()
	c := New("falcon-golden")
	var now time.Duration
	c.Now = func() time.Duration { return now }
	var counts strings.Builder
	step := func() {
		now += 1500 * time.Microsecond
		fmt.Fprint(&counts, c.PortHealth()[0].ErrorCount)
	}
	ok := func(err error) {
		t.Helper()
		step()
		if err != nil {
			t.Fatal(err)
		}
	}
	fail := func(err error) {
		t.Helper()
		step()
		if err == nil {
			t.Fatal("step succeeded, want an error")
		}
	}
	ok(c.CableHost("H1", "host-a"))
	ok(c.CableHost("H2", "host-b"))
	ok(c.CableHost("H3", "host-c"))
	ok(c.CableHost("H4", "fabric-x"))
	ok(c.SetMode(0, ModeAdvanced))
	ok(c.SetMode(1, ModeStandardTwoHost))
	ok(c.Install(SlotRef{0, 0}, DeviceInfo{ID: "gpu-0", Type: DeviceGPU, Model: "Tesla V100-PCIE-16GB"}))
	ok(c.Install(SlotRef{0, 1}, DeviceInfo{ID: "nvme-0", Type: DeviceNVMe, Model: "P4510"}))
	ok(c.Install(SlotRef{0, 2}, DeviceInfo{ID: "nic-0", Type: DeviceNIC, Model: "CX-6"}))
	ok(c.Install(SlotRef{0, 3}, DeviceInfo{ID: "gpu-2", Type: DeviceGPU, Model: "Tesla V100-PCIE-16GB"}))
	ok(c.Install(SlotRef{1, 0}, DeviceInfo{ID: "gpu-1", Type: DeviceGPU, Model: "Tesla P100-PCIE-16GB"}))
	ok(c.Install(SlotRef{1, 5}, DeviceInfo{ID: "fpga-0", Type: DeviceCustom, Model: "U250"}))
	ok(c.Attach(SlotRef{0, 0}, "H1"))
	ok(c.Attach(SlotRef{0, 1}, "H2"))
	ok(c.Attach(SlotRef{1, 0}, "H1"))
	fail(c.Attach(SlotRef{1, 5}, "H1")) // H1 already serves drawer 1's lower half
	ok(c.Attach(SlotRef{1, 5}, "H2"))
	ok(c.Reassign(SlotRef{0, 0}, "H3"))
	fail(c.Reassign(SlotRef{1, 0}, "H2")) // standard mode: no re-allocation, no log entry
	ok(c.Attach(SlotRef{0, 3}, "H1"))
	fail(c.Attach(SlotRef{0, 2}, "H4")) // a fourth host in an advanced drawer
	ok(c.Detach(SlotRef{0, 1}))
	ok(c.Remove(SlotRef{0, 1}))
	if got := c.checkThermals(SensorReadings{DrawerTempC: [NumDrawers]float64{66.54, 71.25}}); got != 2 {
		t.Fatalf("thermal alerts = %d, want 2", got)
	}
	if got := c.checkThermals(c.Sensors()); got != 0 {
		t.Fatalf("thermal alerts at real load = %d, want 0", got)
	}
	return c, counts.String()
}

func formatEvents(evs []Event) string {
	var b strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&b, "%d %s %s\n", int64(e.At), e.Severity, e.Message)
	}
	return b.String()
}

func formatHealth(hs []LinkHealth) string {
	var b strings.Builder
	for _, h := range hs {
		fmt.Fprintf(&b, "%+v\n", h)
	}
	return b.String()
}

// The golden strings below were captured from the eagerly formatted log
// (every entry run through fmt.Sprintf when it was appended). The typed
// log must reproduce them byte for byte.
const goldenEvents = `0 info host host-a cabled to port H1
1500000 info host host-b cabled to port H2
3000000 info host host-c cabled to port H3
4500000 info host fabric-x cabled to port H4
6000000 info drawer 0 mode set to advanced
7500000 info drawer 1 mode set to standard-2host
9000000 info device gpu-0 (GPU) installed in d0/s0
10500000 info device nvme-0 (NVMe) installed in d0/s1
12000000 info device nic-0 (NIC) installed in d0/s2
13500000 info device gpu-2 (GPU) installed in d0/s3
15000000 info device gpu-1 (GPU) installed in d1/s0
16500000 info device fpga-0 (Custom) installed in d1/s5
18000000 info device gpu-0 in d0/s0 attached to H1 (host host-a)
19500000 info device nvme-0 in d0/s1 attached to H2 (host host-b)
21000000 info device gpu-1 in d1/s0 attached to H1 (host host-a)
22500000 warning attach d1/s5 to H1 rejected: standard mode partitions the drawer in halves: port H1 already serves slots 0-3
24000000 info device fpga-0 in d1/s5 attached to H2 (host host-b)
25500000 info device gpu-0 in d0/s0 attached to H3 (host host-c)
28500000 info device gpu-2 in d0/s3 attached to H1 (host host-a)
30000000 warning attach d0/s2 to H4 rejected: mode advanced allows at most 3 hosts per drawer
31500000 info device nvme-0 in d0/s1 detached from H2
33000000 info device nvme-0 removed from d0/s1
34500000 warning drawer 0 temperature 66.5C exceeds 65C threshold
34500000 warning drawer 1 temperature 71.2C exceeds 65C threshold
`

const goldenErrorCounts = "00000011111112222222222"

const goldenHealth = `{Port:H1 LinkUp:true Gen:4 Lanes:16 ErrorCount:2 Description:x16 Gen4 to host-a}
{Port:H2 LinkUp:true Gen:4 Lanes:16 ErrorCount:2 Description:x16 Gen4 to host-b}
{Port:H3 LinkUp:true Gen:4 Lanes:16 ErrorCount:2 Description:x16 Gen4 to host-c}
{Port:H4 LinkUp:true Gen:4 Lanes:16 ErrorCount:2 Description:x16 Gen4 to fabric-x}
`

const goldenImportEvents = `0 info host host-a cabled to port H1
0 info host host-b cabled to port H2
0 info host host-c cabled to port H3
0 info host fabric-x cabled to port H4
0 info drawer 0 mode set to advanced
0 info device gpu-0 (GPU) installed in d0/s0
0 info device gpu-0 in d0/s0 attached to H3 (host host-c)
0 info device nic-0 (NIC) installed in d0/s2
0 info device gpu-2 (GPU) installed in d0/s3
0 info device gpu-2 in d0/s3 attached to H1 (host host-a)
0 info drawer 1 mode set to standard-2host
0 info device gpu-1 (GPU) installed in d1/s0
0 info device gpu-1 in d1/s0 attached to H1 (host host-a)
0 info device fpga-0 (Custom) installed in d1/s5
0 info device fpga-0 in d1/s5 attached to H2 (host host-b)
0 info configuration imported
`

const goldenImportHealth = `{Port:H1 LinkUp:true Gen:4 Lanes:16 ErrorCount:2 Description:x16 Gen4 to host-a}
{Port:H2 LinkUp:true Gen:4 Lanes:16 ErrorCount:2 Description:x16 Gen4 to host-b}
{Port:H3 LinkUp:true Gen:4 Lanes:16 ErrorCount:2 Description:x16 Gen4 to host-c}
{Port:H4 LinkUp:true Gen:4 Lanes:16 ErrorCount:2 Description:x16 Gen4 to fabric-x}
`

// TestEventLogGolden pins the formatted event log (At, Severity, Message)
// and the link-health view, whose error counts derive from the log, for
// every log kind, including the import replay.
func TestEventLogGolden(t *testing.T) {
	c, counts := goldenChassis(t)
	if counts != goldenErrorCounts {
		t.Errorf("error counts per step = %s, want %s", counts, goldenErrorCounts)
	}
	if got := formatEvents(c.Events()); got != goldenEvents {
		t.Errorf("event log:\n%s\nwant:\n%s", got, goldenEvents)
	}
	if got := formatHealth(c.PortHealth()); got != goldenHealth {
		t.Errorf("port health:\n%s\nwant:\n%s", got, goldenHealth)
	}

	cfg, err := c.ExportConfig()
	if err != nil {
		t.Fatal(err)
	}
	imp := New("falcon-import")
	if err := imp.ImportConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if got := formatEvents(imp.Events()); got != goldenImportEvents {
		t.Errorf("import log:\n%s\nwant:\n%s", got, goldenImportEvents)
	}
	if got := formatHealth(imp.PortHealth()); got != goldenImportHealth {
		t.Errorf("import port health:\n%s\nwant:\n%s", got, goldenImportHealth)
	}
}

// TestEventsEmptyLogIsNil pins that a fresh chassis reports a nil log, so
// the management API serves "null" for it.
func TestEventsEmptyLogIsNil(t *testing.T) {
	if evs := New("fresh").Events(); evs != nil {
		t.Fatalf("fresh chassis events = %#v, want nil", evs)
	}
}

// TestEventsReturnsACopy pins that callers cannot edit the log through
// the returned slice.
func TestEventsReturnsACopy(t *testing.T) {
	c, _ := goldenChassis(t)
	evs := c.Events()
	evs[0].Message = "edited"
	if got := c.Events()[0].Message; got != "host host-a cabled to port H1" {
		t.Fatalf("log edited through Events(): %q", got)
	}
}

// TestSetTrafficSourceInvalidSlotIsNoop pins that wiring a traffic source
// to a slot outside the chassis neither panics nor shows up in the
// port-traffic view, while a valid slot's source does.
func TestSetTrafficSourceInvalidSlotIsNoop(t *testing.T) {
	c := New("traffic")
	if err := c.Install(SlotRef{1, 2}, v100(0)); err != nil {
		t.Fatal(err)
	}
	called := false
	bad := func() (in, out units.Bytes) { called = true; return 1, 1 }
	for _, ref := range []SlotRef{{-1, 0}, {0, -1}, {NumDrawers, 0}, {0, SlotsPerDrawer}, {7, 99}} {
		c.SetTrafficSource(ref, bad)
	}
	if rows := c.PortTraffic(); rows != nil {
		t.Fatalf("invalid slots produced traffic rows: %+v", rows)
	}
	c.SetTrafficSource(SlotRef{1, 2}, func() (in, out units.Bytes) { return 300, 200 })
	rows := c.PortTraffic()
	want := []PortTrafficRow{{Slot: SlotRef{1, 2}, Device: "gpu-0", Ingress: 300, Egress: 200}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %+v, want %+v", rows, want)
	}
	if called {
		t.Fatal("a source wired to an invalid slot was read")
	}
}

// TestLogEntryStaysCompact pins the typed log entry's size: every compose
// and attach appends one, so it must not grow into a formatted message.
func TestLogEntryStaysCompact(t *testing.T) {
	if size := unsafe.Sizeof(logEntry{}); size > 56 {
		t.Fatalf("logEntry is %d bytes, want at most 56", size)
	}
}
