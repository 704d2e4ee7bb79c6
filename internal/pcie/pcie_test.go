package pcie

import (
	"fmt"
	"math"
	"testing"

	"composable/internal/units"
)

// rawBandwidth returns the per-direction line bandwidth of a link with the
// given lane count after line coding (e.g. Gen4 x16 ≈ 31.5 GB/s): the
// reference that the calibrated effective rates must stay below.
func rawBandwidth(g Gen, lanes int) units.BytesPerSec {
	return units.GBps(g.laneGTs() * float64(lanes) * g.encodingEfficiency() / 8)
}

// laneGTs returns the per-lane transfer rate in GT/s.
func (g Gen) laneGTs() float64 {
	switch g {
	case Gen1:
		return 2.5
	case Gen2:
		return 5
	case Gen3:
		return 8
	case Gen4:
		return 16
	case Gen5:
		return 32
	default:
		panic(fmt.Sprintf("pcie: unknown generation %d", int(g)))
	}
}

// encodingEfficiency is the line-coding efficiency: 8b/10b for Gen1/2,
// 128b/130b from Gen3 on.
func (g Gen) encodingEfficiency() float64 {
	if g <= Gen2 {
		return 8.0 / 10.0
	}
	return 128.0 / 130.0
}

func TestRawBandwidthPerGeneration(t *testing.T) {
	// Published per-direction line rates for x16 links (GB/s).
	cases := []struct {
		gen  Gen
		want float64
	}{
		{Gen1, 4.0},
		{Gen2, 8.0},
		{Gen3, 15.75},
		{Gen4, 31.51},
		{Gen5, 63.02},
	}
	for _, c := range cases {
		got := rawBandwidth(c.gen, 16).GB()
		if math.Abs(got-c.want)/c.want > 0.01 {
			t.Errorf("%v x16 = %.2f GB/s, want %.2f", c.gen, got, c.want)
		}
	}
}

func TestEncodingEfficiency(t *testing.T) {
	// Gen1/2 use 8b/10b; Gen3+ use 128b/130b, so Gen3 at 8 GT/s delivers
	// almost double Gen2 at 5 GT/s.
	g2 := rawBandwidth(Gen2, 4).GB()
	g3 := rawBandwidth(Gen3, 4).GB()
	if r := g3 / g2; r < 1.9 || r > 2.1 {
		t.Errorf("gen3/gen2 ratio = %.2f, want ≈1.97", r)
	}
}

func TestCalibrationMatchesTableIV(t *testing.T) {
	// The effective constants must reproduce the paper's Table IV when
	// doubled (bidirectional measurements).
	if got := 2 * EffSwitchP2P.GB(); math.Abs(got-24.47) > 0.01 {
		t.Errorf("2x switch P2P = %.2f, want 24.47 (F-F)", got)
	}
	if got := 2 * EffHostAdapter.GB(); math.Abs(got-19.64) > 0.01 {
		t.Errorf("2x host adapter = %.2f, want 19.64 (F-L)", got)
	}
	// Effective rates must be below raw line rate (sanity).
	if EffSwitchP2P >= rawBandwidth(Gen4, 16) {
		t.Error("effective switch P2P exceeds raw Gen4 x16")
	}
	if EffLocalGPU >= rawBandwidth(Gen3, 16) {
		t.Error("effective local GPU exceeds raw Gen3 x16")
	}
}

func TestLatencyCalibration(t *testing.T) {
	// F-F: endpoint + 2 slot hops = 2.08 µs.
	if got := EndpointOverhead + 2*SlotLatency; got.Microseconds() != 2 || got.Nanoseconds() != 2080 {
		t.Errorf("F-F latency = %v, want 2.08µs", got)
	}
	// F-L: endpoint + slot + host link + adapter + local GPU = 2.66 µs.
	fl := EndpointOverhead + SlotLatency + HostLinkLatency + AdapterLatency + LocalGPULatency
	if fl.Nanoseconds() != 2660 {
		t.Errorf("F-L latency = %v, want 2.66µs", fl)
	}
}

func TestCDFPCable(t *testing.T) {
	if got := CDFPHostCable.GB(); got != 50 {
		t.Errorf("400Gb/s CDFP = %.0f GB/s, want 50", got)
	}
}

func TestUnknownGenerationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown generation")
		}
	}()
	rawBandwidth(Gen(9), 16)
}

// TestGenString pins the protocol labels the fabric links carry, for
// every known generation and for unknown ones.
func TestGenString(t *testing.T) {
	for _, tc := range []struct {
		g    Gen
		want string
	}{
		{Gen1, "PCI-e 1.0"},
		{Gen2, "PCI-e 2.0"},
		{Gen3, "PCI-e 3.0"},
		{Gen4, "PCI-e 4.0"},
		{Gen5, "PCI-e 5.0"},
		{Gen(0), "PCI-e 0.0"},
		{Gen(6), "PCI-e 6.0"},
		{Gen(12), "PCI-e 12.0"},
		{Gen(-1), "PCI-e -1.0"},
	} {
		if got := tc.g.String(); got != tc.want {
			t.Errorf("Gen(%d).String() = %q, want %q", int(tc.g), got, tc.want)
		}
	}
}
