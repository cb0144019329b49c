// Package ec2 holds the static cloud-resource catalog CELIA selects
// from: the nine Amazon EC2 on-demand instance types of the paper's
// Table III (Oregon region, 2017 pricing), grouped into the
// compute-intensive c4, general-purpose m4, and memory-optimized r3
// categories. The catalog is the set I of Table I; per-type node limits
// (m_i,max = 5 in the paper) live in internal/config's Space.
package ec2

import (
	"fmt"
	"sort"

	"repro/internal/units"
)

// Category is an EC2 resource category — a processor family sharing the
// same micro-architecture and, per the paper's §IV-C observation, the
// same instruction-execution rate per dollar.
type Category string

// The three categories the paper evaluates.
const (
	C4 Category = "c4" // compute-intensive, Intel Xeon E5-2666 v3
	M4 Category = "m4" // general-purpose,  Intel Xeon E5-2676 v3
	R3 Category = "r3" // memory-optimized, Intel Xeon E5-2670
)

// Categories lists the categories in the paper's canonical order. The
// first three positions of a configuration tuple are c4 types, the next
// three m4, the last three r3 (Figure 6's annotation convention).
func Categories() []Category { return []Category{C4, M4, R3} }

// InstanceType describes one EC2 resource type i ∈ I: the hardware
// exposed to the guest and its on-demand hourly price c_i.
type InstanceType struct {
	Name     string           // e.g. "c4.xlarge"
	Category Category         // resource category (c4/m4/r3)
	VCPUs    int              // v_i: virtual processors (hyper-threads)
	BaseGHz  float64          // base core frequency from Table III
	MemGB    float64          // guest memory
	Storage  string           // "EBS" or instance-store size in GB
	Price    units.USDPerHour // on-demand price, Oregon region
}

func (t InstanceType) String() string {
	return fmt.Sprintf("%s (%d vCPU, %.1f GHz, %s)", t.Name, t.VCPUs, t.BaseGHz, t.Price)
}

// Catalog is an ordered set of instance types. Order is significant: it
// defines the positions of configuration tuples.
type Catalog struct {
	types []InstanceType
	index map[string]int
}

// NewCatalog builds a catalog from the given types, preserving order.
// Duplicate names and non-positive prices or vCPU counts are rejected.
func NewCatalog(types []InstanceType) (*Catalog, error) {
	c := &Catalog{index: make(map[string]int, len(types))}
	for _, t := range types {
		if t.Name == "" {
			return nil, fmt.Errorf("ec2: instance type with empty name")
		}
		if _, dup := c.index[t.Name]; dup {
			return nil, fmt.Errorf("ec2: duplicate instance type %q", t.Name)
		}
		if t.VCPUs <= 0 {
			return nil, fmt.Errorf("ec2: %s has non-positive vCPU count %d", t.Name, t.VCPUs)
		}
		if t.Price <= 0 {
			return nil, fmt.Errorf("ec2: %s has non-positive price %v", t.Name, t.Price)
		}
		if t.BaseGHz <= 0 {
			return nil, fmt.Errorf("ec2: %s has non-positive frequency %v", t.Name, t.BaseGHz)
		}
		c.index[t.Name] = len(c.types)
		c.types = append(c.types, t)
	}
	if len(c.types) == 0 {
		return nil, fmt.Errorf("ec2: empty catalog")
	}
	return c, nil
}

// Len reports M, the number of resource types.
func (c *Catalog) Len() int { return len(c.types) }

// Type returns the i-th instance type (0-based tuple position).
func (c *Catalog) Type(i int) InstanceType { return c.types[i] }

// Lookup finds a type by name.
func (c *Catalog) Lookup(name string) (InstanceType, bool) {
	i, ok := c.index[name]
	if !ok {
		return InstanceType{}, false
	}
	return c.types[i], true
}

// IndexOf returns the tuple position of the named type, or -1.
func (c *Catalog) IndexOf(name string) int {
	i, ok := c.index[name]
	if !ok {
		return -1
	}
	return i
}

// ByCategory returns the tuple positions belonging to the category, in
// catalog order.
func (c *Catalog) ByCategory(cat Category) []int {
	var out []int
	for i, t := range c.types {
		if t.Category == cat {
			out = append(out, i)
		}
	}
	return out
}

// CategoryNames returns the distinct categories present, sorted.
func (c *Catalog) CategoryNames() []Category {
	seen := map[Category]bool{}
	var out []Category
	for _, t := range c.types {
		if !seen[t.Category] {
			seen[t.Category] = true
			out = append(out, t.Category)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Oregon returns the paper's Table III catalog: nine types, three per
// category, in the tuple order used throughout the evaluation
// (c4.large … c4.2xlarge, m4.large … m4.2xlarge, r3.large … r3.2xlarge).
func Oregon() *Catalog {
	c, err := NewCatalog([]InstanceType{
		{Name: "c4.large", Category: C4, VCPUs: 2, BaseGHz: 2.9, MemGB: 3.75, Storage: "EBS", Price: 0.105},
		{Name: "c4.xlarge", Category: C4, VCPUs: 4, BaseGHz: 2.9, MemGB: 7.5, Storage: "EBS", Price: 0.209},
		{Name: "c4.2xlarge", Category: C4, VCPUs: 8, BaseGHz: 2.9, MemGB: 15, Storage: "EBS", Price: 0.419},
		{Name: "m4.large", Category: M4, VCPUs: 2, BaseGHz: 2.3, MemGB: 8, Storage: "EBS", Price: 0.133},
		{Name: "m4.xlarge", Category: M4, VCPUs: 4, BaseGHz: 2.3, MemGB: 16, Storage: "EBS", Price: 0.266},
		{Name: "m4.2xlarge", Category: M4, VCPUs: 8, BaseGHz: 2.3, MemGB: 32, Storage: "EBS", Price: 0.532},
		{Name: "r3.large", Category: R3, VCPUs: 2, BaseGHz: 2.5, MemGB: 15, Storage: "32 GB", Price: 0.166},
		{Name: "r3.xlarge", Category: R3, VCPUs: 4, BaseGHz: 2.5, MemGB: 30.5, Storage: "80 GB", Price: 0.333},
		{Name: "r3.2xlarge", Category: R3, VCPUs: 8, BaseGHz: 2.5, MemGB: 61, Storage: "160 GB", Price: 0.664},
	})
	if err != nil {
		panic("ec2: Oregon catalog invalid: " + err.Error()) // static data; unreachable
	}
	return c
}
