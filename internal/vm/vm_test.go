package vm

import (
	"math"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/ec2"
	"repro/internal/units"
)

func TestProvisionDeterministic(t *testing.T) {
	typ, _ := ec2.Oregon().Lookup("c4.large")
	a := Provision(3, typ, galaxy.App{}, 42)
	b := Provision(3, typ, galaxy.App{}, 42)
	if a.PerVCPURate() != b.PerVCPURate() {
		t.Fatal("provisioning not deterministic for equal seed/id")
	}
	c := Provision(4, typ, galaxy.App{}, 42)
	if a.PerVCPURate() == c.PerVCPURate() {
		t.Fatal("different instances got identical jitter (suspicious)")
	}
}

func TestJitterBounded(t *testing.T) {
	typ, _ := ec2.Oregon().Lookup("m4.xlarge")
	for id := 0; id < 200; id++ {
		in := Provision(id, typ, galaxy.App{}, 7)
		if j := in.Jitter(); j < 1-JitterAmplitude || j > 1+JitterAmplitude {
			t.Fatalf("jitter %v outside ±%v", j, JitterAmplitude)
		}
	}
}

func TestRateNearNominal(t *testing.T) {
	typ, _ := ec2.Oregon().Lookup("c4.large")
	var app galaxy.App
	nominal := app.IPC(ec2.C4) * typ.BaseGHz * float64(typ.VCPUs) // GIPS
	in := Provision(0, typ, app, 1)
	got := in.Rate().GIPSValue()
	if math.Abs(got-nominal)/nominal > JitterAmplitude+1e-9 {
		t.Fatalf("aggregate rate %v deviates > jitter from nominal %v", got, nominal)
	}
}

func TestExecTime(t *testing.T) {
	typ, _ := ec2.Oregon().Lookup("c4.large")
	in := Provision(0, typ, galaxy.App{}, 1)
	d := units.GI(10)
	want := float64(d) / float64(in.PerVCPURate())
	if got := float64(in.ExecTime(d)); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ExecTime = %v, want %v", got, want)
	}
}

func TestStringMentionsType(t *testing.T) {
	typ, _ := ec2.Oregon().Lookup("r3.2xlarge")
	in := Provision(5, typ, galaxy.App{}, 1)
	if s := in.String(); s == "" || len(s) < 10 {
		t.Fatalf("String = %q", s)
	}
}

func TestRateAggregatesVCPUs(t *testing.T) {
	typ, _ := ec2.Oregon().Lookup("m4.2xlarge")
	in := Provision(0, typ, galaxy.App{}, 1)
	want := float64(in.PerVCPURate()) * 8
	if math.Abs(float64(in.Rate())-want) > 1e-9 {
		t.Fatalf("Rate = %v, want %v", in.Rate(), want)
	}
}
