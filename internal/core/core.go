// Package core is the public face of the composable-system platform: it
// composes pooled resources (host GPUs, Falcon chassis devices, storage)
// into runnable systems, runs deep-learning workloads on them, and exposes
// the measurement surface the paper's evaluation is built on.
//
// The intended workflow mirrors the paper's §V:
//
//	sys, _ := core.NewSystem(core.FalconGPUs())
//	res, _ := sys.Train(train.Options{
//	        Workload:      dlmodel.ResNet50Workload(),
//	        Precision:     gpu.FP16,
//	        ItersPerEpoch: 40,
//	})
//	fmt.Println(res.TotalTime, res.FalconPCIeGBps)
package core

import (
	"fmt"

	"composable/internal/cluster"
	"composable/internal/falcon"
	"composable/internal/microbench"
	"composable/internal/sim"
	"composable/internal/train"
	"composable/internal/units"
)

// Config aliases the cluster composition config.
type Config = cluster.Config

// The five host configurations of the paper's Table III.
func LocalGPUs() Config  { return cluster.LocalGPUsConfig() }
func HybridGPUs() Config { return cluster.HybridGPUsConfig() }
func FalconGPUs() Config { return cluster.FalconGPUsConfig() }
func LocalNVMe() Config  { return cluster.LocalNVMeConfig() }
func FalconNVMe() Config { return cluster.FalconNVMeConfig() }
func Configs() []Config  { return cluster.TableIIIConfigs() }

// System is a composed system with its own simulation clock. Training runs
// execute sequentially on it; each run advances the clock further.
type System struct {
	*cluster.System
}

// NewSystem composes a fresh system for the configuration.
func NewSystem(cfg Config) (*System, error) {
	env := sim.NewEnv()
	sys, err := cluster.Compose(env, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: compose %s: %w", cfg.Name, err)
	}
	return &System{System: sys}, nil
}

// Train runs one training job to completion and returns its results.
func (s *System) Train(opts train.Options) (*train.Result, error) {
	return train.Run(s.System, opts)
}

// ChassisTopology renders the management view of the chassis.
func (s *System) ChassisTopology() string { return s.Chassis.Topology() }

// ChassisEvents returns the chassis event log.
func (s *System) ChassisEvents() []falcon.Event { return s.Chassis.Events() }

// P2PBenchmark runs the p2p microbenchmark (Table IV). It composes its own
// hybrid system, so it can be called without a System.
func P2PBenchmark(payload units.Bytes) ([]microbench.P2PResult, error) {
	return microbench.TableIV(payload)
}

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
