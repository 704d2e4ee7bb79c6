package microbench

import (
	"math"
	"testing"
	"time"

	"composable/internal/units"
)

// TestTableIVAt256MB runs the P2P benchmark with a smaller message than
// TestTableIVReproduction; the three rows and the NVLink bandwidth hold.
func TestTableIVAt256MB(t *testing.T) {
	rows, err := TableIV(256 * units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Pair != "L-L" || rows[0].BidirBandwidth.GB() < 70 {
		t.Fatalf("L-L row = %+v", rows[0])
	}
}

// TestTableIVReproduction pins the simulated microbenchmark to the paper's
// Table IV within 2%:
//
//	             L-L     F-L     F-F
//	bidir GB/s   72.37   19.64   24.47
//	latency µs   1.85    2.66    2.08
//	protocol     NVLink  PCIe4   PCIe4
func TestTableIVReproduction(t *testing.T) {
	res, err := TableIV(units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("rows = %d", len(res))
	}
	want := []struct {
		pair  string
		gbps  float64
		lat   time.Duration
		proto string
	}{
		{"L-L", 72.37, 1850 * time.Nanosecond, "NVLink"},
		{"F-L", 19.64, 2660 * time.Nanosecond, "PCI-e 4.0"},
		{"F-F", 24.47, 2080 * time.Nanosecond, "PCI-e 4.0"},
	}
	for i, w := range want {
		r := res[i]
		if r.Pair != w.pair {
			t.Fatalf("row %d pair = %s, want %s", i, r.Pair, w.pair)
		}
		if got := r.BidirBandwidth.GB(); math.Abs(got-w.gbps)/w.gbps > 0.02 {
			t.Errorf("%s bandwidth = %.2f GB/s, want %.2f", w.pair, got, w.gbps)
		}
		if d := r.WriteLatency - w.lat; d < -50*time.Nanosecond || d > 50*time.Nanosecond {
			t.Errorf("%s latency = %v, want %v", w.pair, r.WriteLatency, w.lat)
		}
		if r.Protocol != w.proto {
			t.Errorf("%s protocol = %q, want %q", w.pair, r.Protocol, w.proto)
		}
	}
	// Orderings the paper calls out: L-L ≈ 4x F-L and ≈ 3x F-F.
	ll, fl, ff := res[0].BidirBandwidth.GB(), res[1].BidirBandwidth.GB(), res[2].BidirBandwidth.GB()
	if r := ll / fl; r < 3.4 || r > 4.1 {
		t.Errorf("L-L/F-L ratio = %.2f, want ~3.7 ('almost 4x')", r)
	}
	if r := ll / ff; r < 2.6 || r > 3.3 {
		t.Errorf("L-L/F-F ratio = %.2f, want ~3.0 ('almost 3x')", r)
	}
}
