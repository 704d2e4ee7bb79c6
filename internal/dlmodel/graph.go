// Package dlmodel builds layer-level cost graphs of the paper's five deep
// learning benchmarks (Table II): MobileNetV2, ResNet-50, YOLOv5-L,
// BERT-base and BERT-large. Each graph carries per-layer parameter counts,
// forward FLOPs and activation sizes computed from the real architectures,
// so Table II's parameter/depth columns are *derived*, not transcribed.
package dlmodel

import (
	"fmt"

	"composable/internal/units"
)

// Layer is one node of a model's cost graph.
type Layer struct {
	Name string
	Kind string // "conv", "dwconv", "linear", "bn", "ln", "act", "pool", "attn", "embed", "add", "concat", "upsample", "detect"
	// Params is the learnable parameter count.
	Params int64
	// FwdFLOPs is the forward multiply-accumulate cost for one sample
	// (counted as 2 FLOPs per MAC).
	FwdFLOPs units.FLOPs
	// ActBytes is the FP32 output activation size for one sample.
	ActBytes units.Bytes
	// DepthUnits is the layer's contribution to the model's reported
	// depth. Conventions differ per family (see Graph.Depth).
	DepthUnits int
}

// Graph is an ordered layer list with aggregate queries.
type Graph struct {
	Name   string
	Layers []Layer

	// Aggregates, computed once by finalize when a builder finishes. The
	// benchmark graphs are immutable after construction and shared across
	// the whole process (Benchmarks caches them), so the hot paths that
	// query Params/FwdFLOPs per training iteration must not re-walk the
	// layer list — MemoryNeeded alone walks it hundreds of times during
	// batch admission.
	finalized bool
	params    int64
	fwdFLOPs  units.FLOPs
	depth     int
}

func (g *Graph) add(l Layer) { g.Layers = append(g.Layers, l) }

// finalize freezes the graph's aggregates. Builders call it exactly once,
// after the last add; graphs assembled by hand (tests) that skip it fall
// back to the walking implementations.
func (g *Graph) finalize() *Graph {
	g.params, g.fwdFLOPs, g.depth = 0, 0, 0
	for _, l := range g.Layers {
		g.params += l.Params
		g.fwdFLOPs += l.FwdFLOPs
		g.depth += l.DepthUnits
	}
	g.finalized = true
	return g
}

// Params returns the total learnable parameter count.
//
//perf:hot
func (g *Graph) Params() int64 {
	if g.finalized {
		return g.params
	}
	var total int64
	for _, l := range g.Layers {
		total += l.Params
	}
	return total
}

// FwdFLOPs returns the forward cost of one sample.
//
//perf:hot
func (g *Graph) FwdFLOPs() units.FLOPs {
	if g.finalized {
		return g.fwdFLOPs
	}
	var total units.FLOPs
	for _, l := range g.Layers {
		total += l.FwdFLOPs
	}
	return total
}

// Depth returns the model depth under its family's counting convention
// (the one Table II uses): weighted layers for the CNN classifiers,
// encoder blocks for BERT, elementary modules for YOLOv5.
//
//perf:hot
func (g *Graph) Depth() int {
	if g.finalized {
		return g.depth
	}
	total := 0
	for _, l := range g.Layers {
		total += l.DepthUnits
	}
	return total
}

func (g *Graph) String() string {
	return fmt.Sprintf("%s: %d layers, %.1fM params, %v fwd/sample, depth %d",
		g.Name, len(g.Layers), float64(g.Params())/1e6, g.FwdFLOPs(), g.Depth())
}

// cnnBuilder tracks spatial dimensions while stacking 2-D layers.
type cnnBuilder struct {
	g    *Graph
	h, w int
	c    int
}

func outDim(in, k, stride, pad int) int { return (in+2*pad-k)/stride + 1 }

// conv adds conv(+BN)(+act). Padding is "same" style (k/2). depthUnits
// applies to the conv itself; BN and activation carry zero depth for the
// classifier convention.
func (b *cnnBuilder) conv(name string, cout, k, stride int, bn, act bool, depthUnits int) {
	pad := k / 2
	ho := outDim(b.h, k, stride, pad)
	wo := outDim(b.w, k, stride, pad)
	params := int64(k*k*b.c) * int64(cout)
	flops := units.FLOPs(2 * int64(k*k*b.c) * int64(cout) * int64(ho*wo))
	actBytes := units.Bytes(4 * cout * ho * wo)
	b.g.add(Layer{Name: name, Kind: "conv", Params: params, FwdFLOPs: flops, ActBytes: actBytes, DepthUnits: depthUnits})
	if bn {
		b.g.add(Layer{Name: name + ".bn", Kind: "bn", Params: int64(2 * cout),
			FwdFLOPs: units.FLOPs(4 * cout * ho * wo), ActBytes: actBytes})
	}
	if act {
		b.g.add(Layer{Name: name + ".act", Kind: "act",
			FwdFLOPs: units.FLOPs(cout * ho * wo), ActBytes: actBytes})
	}
	b.h, b.w, b.c = ho, wo, cout
}

// dwconv adds a depthwise conv(+BN)(+act).
func (b *cnnBuilder) dwconv(name string, k, stride int, depthUnits int) {
	pad := k / 2
	ho := outDim(b.h, k, stride, pad)
	wo := outDim(b.w, k, stride, pad)
	params := int64(k*k) * int64(b.c)
	flops := units.FLOPs(2 * int64(k*k) * int64(b.c) * int64(ho*wo))
	actBytes := units.Bytes(4 * b.c * ho * wo)
	b.g.add(Layer{Name: name, Kind: "dwconv", Params: params, FwdFLOPs: flops, ActBytes: actBytes, DepthUnits: depthUnits})
	b.g.add(Layer{Name: name + ".bn", Kind: "bn", Params: int64(2 * b.c),
		FwdFLOPs: units.FLOPs(4 * b.c * ho * wo), ActBytes: actBytes})
	b.g.add(Layer{Name: name + ".act", Kind: "act",
		FwdFLOPs: units.FLOPs(b.c * ho * wo), ActBytes: actBytes})
	b.h, b.w = ho, wo
}

// pool adds a pooling layer.
func (b *cnnBuilder) pool(name string, k, stride int, global bool) {
	if global {
		b.g.add(Layer{Name: name, Kind: "pool",
			FwdFLOPs: units.FLOPs(b.c * b.h * b.w), ActBytes: units.Bytes(4 * b.c)})
		b.h, b.w = 1, 1
		return
	}
	pad := 0
	ho := outDim(b.h, k, stride, pad)
	wo := outDim(b.w, k, stride, pad)
	b.g.add(Layer{Name: name, Kind: "pool",
		FwdFLOPs: units.FLOPs(k * k * b.c * ho * wo), ActBytes: units.Bytes(4 * b.c * ho * wo)})
	b.h, b.w = ho, wo
}

// linear adds a fully connected layer with bias.
func (b *cnnBuilder) linear(name string, out int, depthUnits int) {
	in := b.c * b.h * b.w
	params := int64(in)*int64(out) + int64(out)
	b.g.add(Layer{Name: name, Kind: "linear", Params: params,
		FwdFLOPs: units.FLOPs(2 * int64(in) * int64(out)), ActBytes: units.Bytes(4 * out), DepthUnits: depthUnits})
	b.c, b.h, b.w = out, 1, 1
}

// addResidual records an elementwise residual addition.
func (b *cnnBuilder) addResidual(name string) {
	b.g.add(Layer{Name: name, Kind: "add",
		FwdFLOPs: units.FLOPs(b.c * b.h * b.w), ActBytes: units.Bytes(4 * b.c * b.h * b.w)})
}
