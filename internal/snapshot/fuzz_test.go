package snapshot

import (
	"reflect"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/detrand"
	"repro/internal/ec2"
	"repro/internal/model"
)

// fuzzEngine builds the reference engine once per fuzz process; the
// fuzz body itself only decodes.
func fuzzEngine(f *testing.F) *core.Engine {
	f.Helper()
	cat := ec2.Oregon()
	space, err := config.Uniform(cat.Len(), 2)
	if err != nil {
		f.Fatal(err)
	}
	eng, err := core.NewEngine(model.FromIPC(cat, galaxy.App{}), demand.FromApp(galaxy.App{}), space, galaxy.App{}.Domain())
	if err != nil {
		f.Fatal(err)
	}
	return eng
}

// FuzzDecode feeds arbitrary bytes to the snapshot decoder, seeded with
// the shapes a real failure produces: a valid artifact, truncations,
// bit flips, and version-skewed forgeries whose checksum is intact, one
// claiming the next version and one the previous (mirroring
// internal/store's FuzzLoad discipline). The decoder must
// never panic, and anything it accepts must be the canonical artifact:
// re-encoding the decoded index reproduces the input byte-for-byte, so
// no corrupted variant can smuggle in a different index.
func FuzzDecode(f *testing.F) {
	eng := fuzzEngine(f)
	built, ok := eng.Frontier()
	if !ok {
		f.Fatal("index did not build")
	}
	valid, err := Encode(eng, built)
	if err != nil {
		f.Fatal(err)
	}
	fingerprint := eng.IndexFingerprint()

	f.Add(valid)
	f.Add(chaos.Truncate(valid, len(valid)/2))
	f.Add(chaos.Truncate(valid, headerLen))
	f.Add(chaos.Truncate(valid, headerLen-1))
	f.Add(chaos.FlipBit(valid, 7))       // magic
	f.Add(chaos.FlipBit(valid, 8*50))    // fingerprint region
	f.Add(chaos.FlipBit(valid, 8*100+3)) // payload
	f.Add(forgeVersion(valid, FormatVersion+1))
	src := detrand.New(42)
	for _, bad := range chaos.Corruptions(valid, src, 16) {
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add([]byte("CELIAIDX"))
	f.Add(forgeVersion(valid, FormatVersion-1))

	f.Fuzz(func(t *testing.T, blob []byte) {
		x, err := Decode(blob, fingerprint)
		if err != nil {
			return
		}
		re, err := Encode(eng, x)
		if err != nil {
			t.Fatalf("accepted index does not re-encode: %v", err)
		}
		if !reflect.DeepEqual(re, blob) {
			t.Fatalf("accepted %d-byte artifact is not canonical", len(blob))
		}
	})
}
