// Package perf simulates the hardware performance-counter facility CELIA
// uses on its local baseline server. The paper measures application
// resource demand with the Linux perf utility (retired-instruction
// counts from non-intrusive hardware counters); cloud providers block
// counter access under virtualization, which is why CELIA profiles on a
// local machine with the same micro-architecture.
//
// Here, application kernels execute their real computation in Go and
// account each source-level operation at its calibrated retired-
// instruction equivalent (e.g. one n-body pair interaction retires ~262
// x86 instructions). An Account plays the role of a `perf stat` session:
// it accumulates event counts per class and reports totals.
package perf

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/units"
)

// EventClass labels a class of retired instructions, mirroring the
// grouping a perf report would show. Classes exist for reporting and
// testing; the demand models consume only the total.
type EventClass string

// The event classes CELIA's kernels account under.
const (
	FloatOps   EventClass = "fp"     // floating-point arithmetic
	IntOps     EventClass = "int"    // integer/ALU work
	MemOps     EventClass = "mem"    // loads/stores
	BranchOps  EventClass = "branch" // control flow
	SetupOps   EventClass = "setup"  // application initialization
	KernelMisc EventClass = "misc"   // uncategorized
)

// Account accumulates retired-instruction counts, like one `perf stat`
// run. The zero value is ready to use. Counts are stored as atomic
// integers so parallel kernels (the apps are highly parallel) can share
// one Account; instruction equivalents are integral by construction.
type Account struct {
	counts map[EventClass]*atomic.Int64
}

// NewAccount returns an empty counting session.
func NewAccount() *Account {
	return &Account{counts: make(map[EventClass]*atomic.Int64)}
}

// Class returns the counter cell for a class, creating it on first use.
// Callers that add from multiple goroutines must obtain the cell before
// spawning them (map writes are not synchronized; cell adds are).
func (a *Account) Class(c EventClass) *atomic.Int64 {
	cell, ok := a.counts[c]
	if !ok {
		cell = new(atomic.Int64)
		a.counts[c] = cell
	}
	return cell
}

// Add accounts n retired instructions under class c. Negative counts are
// rejected: hardware counters only move forward.
func (a *Account) Add(c EventClass, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("perf: negative count %d for class %s", n, c))
	}
	a.Class(c).Add(n)
}

// Count reports the accumulated count for one class.
func (a *Account) Count(c EventClass) int64 {
	if cell, ok := a.counts[c]; ok {
		return cell.Load()
	}
	return 0
}

// Total reports all retired instructions across classes — the quantity
// CELIA uses as the resource-demand proxy (D in Table I).
func (a *Account) Total() units.Instructions {
	var sum int64
	for _, cell := range a.counts {
		sum += cell.Load()
	}
	return units.Instructions(sum)
}

// Breakdown returns per-class counts sorted by class name, for reports.
func (a *Account) Breakdown() []ClassCount {
	out := make([]ClassCount, 0, len(a.counts))
	for c, cell := range a.counts {
		out = append(out, ClassCount{Class: c, Count: cell.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// ClassCount is one row of a Breakdown.
type ClassCount struct {
	Class EventClass
	Count int64
}

func (cc ClassCount) String() string {
	return fmt.Sprintf("%12d  %s", cc.Count, cc.Class)
}
