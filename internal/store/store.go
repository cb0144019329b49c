// Package store persists CELIA characterizations. Profiling is the
// expensive step of the methodology — baseline runs on a local server
// plus timed probes on paid cloud instances — so a production user
// characterizes an application once and reuses the result. The format
// is versioned JSON holding the fitted demand model (by basis names and
// coefficients) and the measured per-vCPU capacities.
package store

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/units"
	"repro/internal/workload"
)

// FormatVersion guards against silently loading an incompatible file.
const FormatVersion = 1

// Characterization is the persisted form of one application's
// measurement results.
type Characterization struct {
	Version int    `json:"version"`
	App     string `json:"app"`

	Demand struct {
		Family string    `json:"family"`
		Bases  []string  `json:"bases"`
		Coeffs []float64 `json:"coeffs"`
		R2     float64   `json:"r2"`
	} `json:"demand"`

	Capacities []TypeCapacity `json:"capacities"`

	Domain struct {
		MinN float64 `json:"min_n,omitempty"`
		MaxN float64 `json:"max_n,omitempty"`
		MinA float64 `json:"min_a,omitempty"`
		MaxA float64 `json:"max_a,omitempty"`
	} `json:"domain"`
}

// TypeCapacity is one measured W_i,vCPU.
type TypeCapacity struct {
	Type        string  `json:"type"`
	PerVCPUGIPS float64 `json:"per_vcpu_gips"`
}

// FromResults assembles a Characterization from profiling outputs.
func FromResults(app workload.App, dr profile.DemandResult, cr profile.CapacityResult) (Characterization, error) {
	var c Characterization
	c.Version = FormatVersion
	c.App = app.Name()
	m := dr.Fit.Model
	if len(m.Bases) == 0 {
		return Characterization{}, fmt.Errorf("store: demand model has no bases (analytic models are not persistable)")
	}
	c.Demand.Family = dr.Fit.Family
	c.Demand.R2 = m.R2
	for _, b := range m.Bases {
		c.Demand.Bases = append(c.Demand.Bases, b.Name)
	}
	c.Demand.Coeffs = append(c.Demand.Coeffs, m.Coeffs...)
	for _, tc := range cr.Types {
		c.Capacities = append(c.Capacities, TypeCapacity{
			Type:        tc.Type.Name,
			PerVCPUGIPS: tc.PerVCPU.GIPSValue(),
		})
	}
	d := app.Domain()
	c.Domain.MinN, c.Domain.MaxN = d.MinN, d.MaxN
	c.Domain.MinA, c.Domain.MaxA = d.MinA, d.MaxA
	return c, nil
}

// Save writes the characterization as indented JSON.
func (c Characterization) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Load reads and validates a characterization.
func Load(r io.Reader) (Characterization, error) {
	var c Characterization
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Characterization{}, fmt.Errorf("store: decode: %w", err)
	}
	if err := c.validate(); err != nil {
		return Characterization{}, err
	}
	return c, nil
}

func (c Characterization) validate() error {
	if c.Version != FormatVersion {
		return fmt.Errorf("store: format version %d, want %d", c.Version, FormatVersion)
	}
	if c.App == "" {
		return fmt.Errorf("store: missing app name")
	}
	if len(c.Demand.Bases) == 0 || len(c.Demand.Bases) != len(c.Demand.Coeffs) {
		return fmt.Errorf("store: %d bases vs %d coefficients", len(c.Demand.Bases), len(c.Demand.Coeffs))
	}
	if len(c.Capacities) == 0 {
		return fmt.Errorf("store: no capacities")
	}
	for _, tc := range c.Capacities {
		if tc.PerVCPUGIPS <= 0 {
			return fmt.Errorf("store: non-positive rate for %s", tc.Type)
		}
	}
	return nil
}

// DemandModel rebuilds the fitted demand model.
func (c Characterization) DemandModel() (demand.Model, error) {
	bases := make([]demand.Basis, len(c.Demand.Bases))
	for i, name := range c.Demand.Bases {
		b, err := demand.ParseBasis(name)
		if err != nil {
			return demand.Model{}, err
		}
		bases[i] = b
	}
	return demand.FromFit(c.App, bases, c.Demand.Coeffs, c.Demand.R2)
}

// CapacityModel rebuilds the capacity model against a catalog. Every
// catalog type must have a stored rate.
func (c Characterization) CapacityModel(cat *ec2.Catalog) (*model.Capacities, error) {
	byName := map[string]float64{}
	for _, tc := range c.Capacities {
		byName[tc.Type] = tc.PerVCPUGIPS
	}
	rates := make([]units.Rate, cat.Len())
	for i := 0; i < cat.Len(); i++ {
		g, ok := byName[cat.Type(i).Name]
		if !ok {
			return nil, fmt.Errorf("store: no stored capacity for %s", cat.Type(i).Name)
		}
		rates[i] = units.GIPS(g)
	}
	return model.New(cat, rates)
}

// Engine rebuilds a full CELIA engine from the characterization over
// the given catalog and per-type node limit.
func (c Characterization) Engine(cat *ec2.Catalog, maxNodes int) (*core.Engine, error) {
	dm, err := c.DemandModel()
	if err != nil {
		return nil, err
	}
	caps, err := c.CapacityModel(cat)
	if err != nil {
		return nil, err
	}
	space, err := config.Uniform(cat.Len(), maxNodes)
	if err != nil {
		return nil, err
	}
	dom := workload.Domain{
		MinN: c.Domain.MinN, MaxN: c.Domain.MaxN,
		MinA: c.Domain.MinA, MaxA: c.Domain.MaxA,
	}
	return core.NewEngine(caps, dm, space, dom)
}
