package units

import (
	"testing"
	"time"
)

func TestBytesString(t *testing.T) {
	cases := map[Bytes]string{
		512:          "512B",
		2 * KB:       "2.00KB",
		3 * MB:       "3.00MB",
		GB + GB/2:    "1.50GB",
		2 * TB:       "2.00TB",
		110 * KB:     "110.00KB",
		25 * MB / 10: "2.50MB",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestBandwidthConstructors(t *testing.T) {
	if got := GBps(10); got != 10e9 {
		t.Errorf("GBps(10) = %v", float64(got))
	}
	if got := Gbps(400); got != 50e9 {
		t.Errorf("Gbps(400) = %v B/s, want 50e9 (CDFP cable)", float64(got))
	}
	if got := BytesPerSec(1.5e9).GB(); got != 1.5 {
		t.Errorf("BytesPerSec(1.5e9).GB() = %v", got)
	}
}

func TestComputeTime(t *testing.T) {
	d := TFLOPS(1).ComputeTime(TFLOP)
	if d != time.Second {
		t.Errorf("1 TFLOP at 1 TFLOPS = %v, want 1s", d)
	}
	if got := TFLOPS(125); got != 125e12 {
		t.Errorf("TFLOPS(125) = %v", float64(got))
	}
}

func TestFLOPsString(t *testing.T) {
	if got := (3 * GFLOP).String(); got != "3.00GFLOP" {
		t.Errorf("got %q", got)
	}
	if got := FLOPSRate(2.5e12).String(); got != "2.50TFLOPS" {
		t.Errorf("got %q", got)
	}
}
