// Package vm models a single provisioned cloud instance: its vCPUs
// (hyper-threads of the host's physical cores), the per-vCPU
// instruction retirement rate an application achieves on it, and the
// run-to-run performance variation the paper attributes to processor
// sharing on virtualized hosts [26].
package vm

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/ec2"
	"repro/internal/units"
	"repro/internal/workload"
)

// JitterAmplitude bounds per-instance performance variation: a
// provisioned instance lands within ±2% of nominal, deterministically
// derived from the provisioning seed.
const JitterAmplitude = 0.02

// Instance is one provisioned VM.
type Instance struct {
	ID   int
	Type ec2.InstanceType
	// perVCPU is the application's effective retirement rate per vCPU
	// on this instance, including the host's jitter factor.
	perVCPU units.Rate
	jitter  float64
}

// Provision creates an instance of the given type for the application.
// The seed and id make the instance's jitter deterministic.
func Provision(id int, typ ec2.InstanceType, app workload.App, seed uint64) Instance {
	nominal := app.IPC(typ.Category) * typ.BaseGHz // GIPS per vCPU
	h := apps.Hash01(seed*1_000_003 + uint64(id)*7919)
	jitter := 1 + JitterAmplitude*(2*h-1)
	return Instance{
		ID:      id,
		Type:    typ,
		perVCPU: units.GIPS(nominal * jitter),
		jitter:  jitter,
	}
}

// PerVCPURate reports the effective per-vCPU rate.
func (in Instance) PerVCPURate() units.Rate { return in.perVCPU }

// Rate reports the instance's aggregate rate with all vCPUs loaded.
func (in Instance) Rate() units.Rate {
	return in.perVCPU * units.Rate(in.Type.VCPUs)
}

// Jitter reports the instance's performance factor relative to nominal.
func (in Instance) Jitter() float64 { return in.jitter }

// ExecTime reports how long this instance needs to retire the given
// instructions on one vCPU.
func (in Instance) ExecTime(d units.Instructions) units.Seconds {
	return units.Time(d, in.perVCPU)
}

func (in Instance) String() string {
	return fmt.Sprintf("vm-%d:%s(×%.3f)", in.ID, in.Type.Name, in.jitter)
}
