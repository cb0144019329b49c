package ec2

import (
	"testing"

	"repro/internal/units"
)

func TestOregonMatchesTableIII(t *testing.T) {
	c := Oregon()
	if c.Len() != 9 {
		t.Fatalf("Oregon catalog has %d types, want 9", c.Len())
	}
	// Spot-check rows of Table III.
	want := []struct {
		name  string
		vcpus int
		ghz   float64
		mem   float64
		price units.USDPerHour
	}{
		{"c4.large", 2, 2.9, 3.75, 0.105},
		{"c4.xlarge", 4, 2.9, 7.5, 0.209},
		{"c4.2xlarge", 8, 2.9, 15, 0.419},
		{"m4.large", 2, 2.3, 8, 0.133},
		{"m4.xlarge", 4, 2.3, 16, 0.266},
		{"m4.2xlarge", 8, 2.3, 32, 0.532},
		{"r3.large", 2, 2.5, 15, 0.166},
		{"r3.xlarge", 4, 2.5, 30.5, 0.333},
		{"r3.2xlarge", 8, 2.5, 61, 0.664},
	}
	for i, w := range want {
		got := c.Type(i)
		if got.Name != w.name || got.VCPUs != w.vcpus || got.BaseGHz != w.ghz ||
			got.MemGB != w.mem || got.Price != w.price {
			t.Errorf("Type(%d) = %+v, want %+v", i, got, w)
		}
	}
}

func TestCategories(t *testing.T) {
	c := Oregon()
	for _, cat := range []Category{C4, M4, R3} {
		idx := c.ByCategory(cat)
		if len(idx) != 3 {
			t.Errorf("ByCategory(%s) = %v, want 3 positions", cat, idx)
		}
		for _, i := range idx {
			if c.Type(i).Category != cat {
				t.Errorf("position %d claims category %s but is %s", i, cat, c.Type(i).Category)
			}
		}
	}
	names := c.CategoryNames()
	if len(names) != 3 || names[0] != C4 || names[1] != M4 || names[2] != R3 {
		t.Fatalf("CategoryNames = %v", names)
	}
}

func TestCategoryTuplePositions(t *testing.T) {
	// Figure 6's annotation convention: first three positions c4, next
	// three m4, last three r3.
	c := Oregon()
	wantCats := []Category{C4, C4, C4, M4, M4, M4, R3, R3, R3}
	for i, cat := range wantCats {
		if c.Type(i).Category != cat {
			t.Errorf("tuple position %d = %s, want %s", i, c.Type(i).Category, cat)
		}
	}
}

func TestLookupAndIndexOf(t *testing.T) {
	c := Oregon()
	typ, ok := c.Lookup("m4.xlarge")
	if !ok || typ.VCPUs != 4 {
		t.Fatalf("Lookup(m4.xlarge) = %+v, %v", typ, ok)
	}
	if _, ok := c.Lookup("p2.xlarge"); ok {
		t.Fatal("Lookup of absent type succeeded")
	}
	if got := c.IndexOf("r3.large"); got != 6 {
		t.Fatalf("IndexOf(r3.large) = %d, want 6", got)
	}
	if got := c.IndexOf("nope"); got != -1 {
		t.Fatalf("IndexOf(nope) = %d, want -1", got)
	}
}

func TestNewCatalogValidation(t *testing.T) {
	valid := InstanceType{Name: "x", Category: C4, VCPUs: 2, BaseGHz: 2.0, Price: 0.1}
	cases := []struct {
		name  string
		types []InstanceType
	}{
		{"empty", nil},
		{"empty name", []InstanceType{{Category: C4, VCPUs: 2, BaseGHz: 2, Price: 0.1}}},
		{"duplicate", []InstanceType{valid, valid}},
		{"zero vcpus", []InstanceType{{Name: "x", VCPUs: 0, BaseGHz: 2, Price: 0.1}}},
		{"zero price", []InstanceType{{Name: "x", VCPUs: 2, BaseGHz: 2, Price: 0}}},
		{"zero freq", []InstanceType{{Name: "x", VCPUs: 2, BaseGHz: 0, Price: 0.1}}},
	}
	for _, c := range cases {
		if _, err := NewCatalog(c.types); err == nil {
			t.Errorf("NewCatalog(%s) did not fail", c.name)
		}
	}
	if _, err := NewCatalog([]InstanceType{valid}); err != nil {
		t.Fatalf("NewCatalog(valid) = %v", err)
	}
}

func TestPriceProportionalToVCPUs(t *testing.T) {
	// Within each category the per-vCPU price is near-constant (within
	// 1%), which is why §IV-C's per-category profiling works.
	c := Oregon()
	for _, cat := range Categories() {
		idx := c.ByCategory(cat)
		base := float64(c.Type(idx[0]).Price) / float64(c.Type(idx[0]).VCPUs)
		for _, i := range idx[1:] {
			perVCPU := float64(c.Type(i).Price) / float64(c.Type(i).VCPUs)
			if diff := (perVCPU - base) / base; diff > 0.01 || diff < -0.01 {
				t.Errorf("%s per-vCPU price %.5f deviates from %s base %.5f",
					c.Type(i).Name, perVCPU, cat, base)
			}
		}
	}
}
