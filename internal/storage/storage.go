// Package storage models the storage subsystem of the composable host:
// NVMe solid-state devices (locally attached or Falcon-attached) and the
// slower general-purpose store the baseline configurations use, plus the
// host page cache that makes re-read epochs cheap.
package storage

import (
	"fmt"
	"time"

	"composable/internal/fabric"
	"composable/internal/hostcpu"
	"composable/internal/sim"
	"composable/internal/units"
)

// Spec describes a storage product's media characteristics.
type Spec struct {
	Name       string
	Capacity   units.Bytes
	SeqRead    units.BytesPerSec // large sequential reads
	RandRead   units.BytesPerSec // ~128 KB random reads (dataset shuffling)
	Write      units.BytesPerSec // sequential writes (checkpoints)
	Latency    time.Duration     // per-request access latency
	QueueSlots int               // concurrent outstanding requests
}

// Catalog entries.
var (
	// IntelNVMe4TB is the Intel SSDPEDKX040T7 used both locally attached
	// and in the Falcon drawer.
	IntelNVMe4TB = Spec{
		Name:       "Intel SSDPEDKX040T7 4TB NVMe",
		Capacity:   4 * units.TB,
		SeqRead:    units.GBps(3.2),
		RandRead:   units.GBps(2.6),
		Write:      units.GBps(2.2),
		Latency:    80 * time.Microsecond,
		QueueSlots: 32,
	}
	// BaselineStore is the hosts' general-purpose local storage used by
	// the localGPUs/hybridGPUs/falconGPUs configurations of Table III
	// ("local storage"): a SATA-class array that keeps sequential
	// streaming adequate but is markedly slower for the shuffled random
	// reads and checkpoint writes DL training issues.
	BaselineStore = Spec{
		Name:       "local storage (SATA-class array)",
		Capacity:   8 * units.TB,
		SeqRead:    units.GBps(1.4),
		RandRead:   units.GBps(0.25),
		Write:      units.GBps(0.45),
		Latency:    450 * time.Microsecond,
		QueueSlots: 8,
	}
)

// Device is a storage device placed in the fabric.
type Device struct {
	Spec Spec
	Node fabric.NodeID
	// Falcon reports whether the device is chassis-attached (its I/O
	// traverses the drawer switch and host adapter).
	Falcon bool

	env   *sim.Env
	net   *fabric.Network
	queue *sim.Resource
}

// New creates a device bound to a fabric node.
func New(env *sim.Env, net *fabric.Network, spec Spec, node fabric.NodeID, falcon bool) *Device {
	return &Device{
		Spec: spec, Node: node, Falcon: falcon,
		env: env, net: net,
		queue: sim.NewResource("storage.queue", spec.QueueSlots),
	}
}

// IOOp is the caller-held state of one ArmRead or ArmWrite. The zero value
// is ready, and it returns to zero when the request completes, so one
// IOOp serves any number of requests in sequence.
type IOOp struct {
	stage uint8
	xfer  fabric.TransferOp
}

// Read transfers size bytes from the device into host memory at mem,
// blocking until complete. random selects the random-read media rate.
//
//lint:allow deadapi(blocking form: the goroutine training-engine oracle runs on it)
func (d *Device) Read(p *sim.Proc, mem fabric.NodeID, size units.Bytes, random bool) error {
	var op IOOp
	for {
		armed, err := d.ArmRead(p, &op, mem, size, random)
		if !armed {
			return err
		}
		p.Park()
	}
}

// Write transfers size bytes from host memory at mem onto the device,
// blocking until complete (checkpoints, logs).
//
//lint:allow deadapi(blocking form: the goroutine training-engine oracle runs on it)
func (d *Device) Write(p *sim.Proc, mem fabric.NodeID, size units.Bytes) error {
	var op IOOp
	for {
		armed, err := d.ArmWrite(p, &op, mem, size)
		if !armed {
			return err
		}
		p.Park()
	}
}

// ArmRead is Read for steppers. Call it with the same arguments on every
// step until it returns armed false; each armed return has registered
// sp's next wake where Read would block, and the final return carries
// Read's error.
//
//perf:hot
func (d *Device) ArmRead(sp *sim.Proc, op *IOOp, mem fabric.NodeID, size units.Bytes, random bool) (bool, error) {
	if size <= 0 {
		return false, nil
	}
	rate := d.Spec.SeqRead
	if random {
		rate = d.Spec.RandRead
	}
	armed, err := d.armIO(sp, op, d.Node, mem, size, rate)
	if armed {
		return true, nil
	}
	if err != nil {
		return false, fmt.Errorf("storage read: %w", err)
	}
	return false, nil
}

// ArmWrite is Write for steppers, with ArmRead's protocol.
//
//perf:hot
func (d *Device) ArmWrite(sp *sim.Proc, op *IOOp, mem fabric.NodeID, size units.Bytes) (bool, error) {
	if size <= 0 {
		return false, nil
	}
	armed, err := d.armIO(sp, op, mem, d.Node, size, d.Spec.Write)
	if armed {
		return true, nil
	}
	if err != nil {
		return false, fmt.Errorf("storage write: %w", err)
	}
	return false, nil
}

// armIO advances one request: take a queue slot, pay the access latency,
// move the bytes at the media rate, free the slot.
//
//perf:hot
func (d *Device) armIO(sp *sim.Proc, op *IOOp, src, dst fabric.NodeID, size units.Bytes, rate units.BytesPerSec) (bool, error) {
	switch op.stage {
	case 0:
		op.stage = 1
		if d.queue.Arm(sp, 1) {
			return true, nil
		}
		fallthrough
	case 1:
		op.stage = 2
		d.env.ReadyAfter(sp, d.Spec.Latency)
		return true, nil
	default:
		armed, err := d.net.ArmTransferLimited(sp, &op.xfer, src, dst, size, rate)
		if armed {
			return true, nil
		}
		op.stage = 0
		d.queue.Release(d.env, 1)
		return false, err
	}
}

// PageCache models the kernel page cache over dataset files: the first
// epoch's reads go to the device; once a dataset is fully resident,
// subsequent epochs are served from host memory. Residency charges the
// host-memory accountant, so datasets larger than free host memory
// never become fully resident.
type PageCache struct {
	host     *hostcpu.Host
	resident map[string]units.Bytes
}

// NewPageCache creates an empty cache charging host.
func NewPageCache(host *hostcpu.Host) *PageCache {
	return &PageCache{host: host, resident: make(map[string]units.Bytes)}
}

// CachedBytes returns how much of the keyed dataset is resident.
func (c *PageCache) CachedBytes(key string) units.Bytes { return c.resident[key] }

// Admit records that n more bytes of the keyed dataset are resident,
// up to limit (the dataset size). Admission silently stops when host
// memory is exhausted, exactly like a real page cache under pressure.
func (c *PageCache) Admit(key string, n, limit units.Bytes) {
	cur := c.resident[key]
	if cur >= limit {
		return
	}
	if cur+n > limit {
		n = limit - cur
	}
	if err := c.host.AllocMem(n); err != nil {
		return // memory pressure: stop caching
	}
	c.resident[key] = cur + n
}
