// Package composable is a full-system simulation of the IBM Research
// composable infrastructure test bed described in "Performance Analysis of
// Deep Learning Workloads on a Composable System" (El Maghraoui et al.,
// IPDPS Workshops 2021, arXiv:2103.10911), together with the deep-learning
// software stack and benchmark suite needed to regenerate every table and
// figure of the paper's evaluation.
//
// The public entry points live in internal/cluster (composition),
// internal/train (training), internal/experiments (the paper's tables and figures, plus the S1–S4
// fleet-scheduling and R1–R3 fault-recovery studies), internal/orchestrator
// (the multi-job fleet scheduler with dynamic GPU recomposition and
// fault recovery, from one chassis up to multi-pod spine/leaf fleets of
// 1000+ GPUs), internal/faults (the deterministic failure engine:
// link degradation, GPU/drawer/host failures and repairs, played into a
// run with checkpoint/restart recovery) and the commands under cmd/.
// See README.md for a module tour, a quickstart, and the paper-to-module
// substitution map.
package composable
