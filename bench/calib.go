package main

import (
	"math"
	"time"
)

// The calibration kernel is a fixed CPU load owned by the benchmark. It
// runs between scenarios, so the speed the host gave the process at that
// moment can be divided out of the scenario's wall time:
//
//	calibrated = wall × calibRefS / mean(kernel before, kernel after)
//
// The reference host, a shared 2-vCPU x86 virtual machine, switches between
// a fast and a slow state that differ by up to 2x, and the simulator slows
// down more than simple integer code does. The kernel therefore mixes the
// three kinds of work whose slowdown, measured around thousands of
// scenarios, tracked the simulator's best: probes into a 64k-entry map
// behind a splitmix hash (route and state lookups), a progressive-filling
// loop of float divides and minimums (the waterfill), and goroutine
// hand-offs over unbuffered channels (the sim's proc wake-ups, which cross
// OS threads when GOMAXPROCS > 1). A binary heap and SHA-256 were tried and
// tracked worst.
// The kernel allocates nothing after newCalibKernel, so it neither feeds
// nor waits for the garbage collector.
type calibKernel struct {
	keys       map[uint64]uint32
	rate, need [calibFillN]float64
	ping, pong chan int
	sink       uint64
}

// The sizes give each part a share of roughly 1:1:2 (map, fill,
// hand-offs), about 5 ms in all on a 2-vCPU x86 virtual machine.
const (
	calibMapN     = 1 << 16
	calibProbes   = 20000
	calibFillN    = 512
	calibFills    = 600
	calibHandoffs = 4000
)

func newCalibKernel() *calibKernel {
	k := &calibKernel{keys: make(map[uint64]uint32, calibMapN), ping: make(chan int), pong: make(chan int)}
	for i := uint64(0); i < calibMapN; i++ {
		k.keys[mix(i)] = uint32(i)
	}
	return k
}

// mix is the splitmix64 finalizer: a cheap, well-spread key sequence.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// run executes the kernel once and returns its wall time.
func (k *calibKernel) run() time.Duration {
	t0 := time.Now()
	acc := k.sink
	for i := uint64(0); i < calibProbes; i++ {
		// Every other probe hits, the rest miss.
		acc += uint64(k.keys[mix(i*2654435761%(2*calibMapN))])
	}
	acc += uint64(k.fill())
	acc += uint64(k.handoffs())
	k.sink = acc
	return time.Since(t0)
}

// fill repeatedly finds the tightest need/rate ratio and drains every
// entry by it, refilling the entries it empties.
func (k *calibKernel) fill() float64 {
	for i := range k.need {
		k.need[i] = float64(i%37 + 1)
		k.rate[i] = float64(i%11 + 1)
	}
	total := 0.0
	for r := 0; r < calibFills; r++ {
		m := math.Inf(1)
		for i := range k.need {
			if v := k.need[i] / k.rate[i]; v < m {
				m = v
			}
		}
		for i := range k.need {
			k.need[i] -= m * k.rate[i] * 0.5
			if k.need[i] <= 1e-9 {
				k.need[i] = float64(i%37 + 1)
			}
		}
		total += m
	}
	return total
}

// handoffs passes a token back and forth with a partner goroutine. The
// partner returns after its last send, which handoffs receives, so no
// goroutine outlives the call.
func (k *calibKernel) handoffs() int {
	go k.echo()
	v := 0
	for i := 0; i < calibHandoffs; i++ {
		k.ping <- v
		v = <-k.pong
	}
	return v
}

func (k *calibKernel) echo() {
	for i := 0; i < calibHandoffs; i++ {
		k.pong <- <-k.ping + 1
	}
}
