package experiments

import (
	"fmt"
	"strings"

	"composable/internal/cluster"
	"composable/internal/dlmodel"
	"composable/internal/microbench"
	"composable/internal/units"
)

// StackComponent is one row of the platform's software-stack manifest —
// the simulator analog of the paper's Table I, mapping every layer of the
// paper's stack to the module that substitutes for it here.
type StackComponent struct {
	Layer      string // the paper's component
	PaperValue string // the version in Table I
	Substitute string // this repository's implementation
}

// StackManifest reproduces Table I, annotated with the simulator module
// standing in for each component.
func StackManifest() []StackComponent {
	return []StackComponent{
		{"Operating system", "Ubuntu 18.04", "composable simulation runtime (internal/sim)"},
		{"DL Framework", "PyTorch 1.7.1", "internal/train (DDP/DP/AMP/sharded engine)"},
		{"CUDA", "10.2.89", "internal/gpu kernel-timing model"},
		{"CUDA Driver", "450.102.04", "internal/gpu device model"},
		{"CUDNN", "cudnn7.6.5", "internal/dlmodel layer cost model"},
		{"NCCL", "NCCL 2.8.4", "internal/collective ring collectives"},
		{"Profiler (wandb)", "wandb 0.10.14", "internal/obs sampler"},
		{"Profiler (Nsight Systems)", "2020.4.3.7", "internal/obs series export"},
		{"Profiler (Nsight Compute)", "2020.3.0.0", "internal/gpu utilization accounting"},
	}
}

// TableI renders the software-stack manifest: the paper's stack and the
// simulator module that substitutes for each layer.
func TableI() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-16s %s\n", "Component", "Paper (Table I)", "This reproduction")
	for _, c := range StackManifest() {
		fmt.Fprintf(&b, "%-28s %-16s %s\n", c.Layer, c.PaperValue, c.Substitute)
	}
	return b.String()
}

// paperTableII is the published Table II for side-by-side comparison.
var paperTableII = map[string]struct {
	params string
	depth  int
}{
	"MobileNetV2": {"3.4M", 53},
	"ResNet-50":   {"25.6M", 50},
	"YOLOv5-L":    {"47M", 392},
	"BERT":        {"110M", 12},
	"BERT-L":      {"340M", 24},
}

// TableIIReport renders the derived benchmark characteristics against the
// published values.
func TableIIReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-16s %-12s %12s %10s %14s %10s\n",
		"Benchmark", "Domain", "Dataset", "Params", "Depth", "Paper-params", "P-depth")
	for _, row := range dlmodel.TableII() {
		p := paperTableII[row.Benchmark]
		fmt.Fprintf(&b, "%-12s %-16s %-12s %11.1fM %10d %14s %10d\n",
			row.Benchmark, row.Domain, row.Dataset,
			float64(row.Params)/1e6, row.Depth, p.params, p.depth)
	}
	return b.String()
}

// TableIIIReport renders the five host configurations.
func TableIIIReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %s\n", "Label", "Host Configuration")
	for _, cfg := range cluster.TableIIIConfigs() {
		fmt.Fprintf(&b, "%-12s %s\n", cfg.Name, cfg.Description())
	}
	return b.String()
}

// paperTableIV is the published Table IV for side-by-side comparison.
var paperTableIV = map[string]struct {
	bw  float64
	lat float64 // µs
}{
	"L-L": {72.37, 1.85},
	"F-L": {19.64, 2.66},
	"F-F": {24.47, 2.08},
}

// TableIVReport runs the p2p microbenchmark and renders it against the
// published Table IV.
func TableIVReport() (string, error) {
	rows, err := microbench.TableIV(units.GB)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %18s %18s %-12s %14s %12s\n",
		"Pair", "Bidir BW (GB/s)", "P2P latency (us)", "Protocol", "Paper-BW", "Paper-lat")
	for _, r := range rows {
		p := paperTableIV[r.Pair]
		fmt.Fprintf(&b, "%-6s %18.2f %18.2f %-12s %14.2f %12.2f\n",
			r.Pair, r.BidirBandwidth.GB(), float64(r.WriteLatency.Nanoseconds())/1e3,
			r.Protocol, p.bw, p.lat)
	}
	return b.String(), nil
}
