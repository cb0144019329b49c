package snapshot

import (
	"crypto/sha256"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps/galaxy"
	"repro/internal/apps/sand"
	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/detrand"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/workload"
)

// testEngine builds a small engine over the Oregon catalog; maxNodes 2
// keeps the space at 3^9 = 19,683 configurations so index builds are
// milliseconds.
func testEngine(t *testing.T, app workload.App, maxNodes int) *core.Engine {
	t.Helper()
	cat := ec2.Oregon()
	space, err := config.Uniform(cat.Len(), maxNodes)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(model.FromIPC(cat, app), demand.FromApp(app), space, app.Domain())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestSaveLoadRoundTrip(t *testing.T) {
	eng := testEngine(t, galaxy.App{}, 2)
	built, ok := eng.Frontier()
	if !ok {
		t.Fatal("index did not build")
	}
	path := PathFor(t.TempDir(), "galaxy")
	if err := Save(path, eng); err != nil {
		t.Fatal(err)
	}

	// A fresh engine with the same catalog loads the artifact and gets a
	// structurally identical index.
	restored := testEngine(t, galaxy.App{}, 2)
	x, err := Load(path, restored)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x, built) {
		t.Fatal("decoded index is not structurally identical to the built one")
	}
	if err := restored.InstallIndex(x); err != nil {
		t.Fatal(err)
	}
	if !restored.FrontierBuilt() {
		t.Fatal("install did not publish the index")
	}

	// Saving again is idempotent at the byte level: same catalog, same
	// artifact.
	blob1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := Encode(restored, x)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(blob1, blob2) {
		t.Fatal("re-encoding the restored index changed the artifact bytes")
	}
}

func TestRestoreInstalls(t *testing.T) {
	eng := testEngine(t, galaxy.App{}, 2)
	dir := t.TempDir()
	path := PathFor(dir, "galaxy")
	if err := Save(path, eng); err != nil {
		t.Fatal(err)
	}
	fresh := testEngine(t, galaxy.App{}, 2)
	if err := Restore(path, fresh); err != nil {
		t.Fatal(err)
	}
	if !fresh.FrontierBuilt() {
		t.Fatal("restore did not install the index")
	}
}

func TestLoadMissingFile(t *testing.T) {
	eng := testEngine(t, galaxy.App{}, 2)
	_, err := Load(PathFor(t.TempDir(), "galaxy"), eng)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing artifact: got %v, want fs.ErrNotExist", err)
	}
}

// TestCorruptionRejected drives the decoder with deterministic bit
// flips and truncations; every variant must fail with ErrCorrupt and
// none may crash.
func TestCorruptionRejected(t *testing.T) {
	eng := testEngine(t, galaxy.App{}, 2)
	path := PathFor(t.TempDir(), "galaxy")
	if err := Save(path, eng); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src := detrand.New(0xC0FFEE)
	for i, bad := range chaos.Corruptions(blob, src, 64) {
		if _, err := Decode(bad, eng.IndexFingerprint()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corruption %d (%d bytes): got %v, want ErrCorrupt", i, len(bad), err)
		}
	}
}

// TestStaleRejected: an intact artifact from a different configuration
// space must be refused with ErrStale, and a different demand model
// over the same catalog must NOT invalidate it — the index is a pure
// function of catalog and space only.
func TestStaleRejected(t *testing.T) {
	eng := testEngine(t, galaxy.App{}, 2)
	path := PathFor(t.TempDir(), "galaxy")
	if err := Save(path, eng); err != nil {
		t.Fatal(err)
	}

	bigger := testEngine(t, galaxy.App{}, 3)
	if _, err := Load(path, bigger); !errors.Is(err, ErrStale) {
		t.Fatalf("resized space: got %v, want ErrStale", err)
	}

	// Same capacities and space, different demand model: the demand law
	// enters at query time, not in the pair table, so the artifact is
	// still valid.
	cat := ec2.Oregon()
	space, err := config.Uniform(cat.Len(), 2)
	if err != nil {
		t.Fatal(err)
	}
	otherDemand, err := core.NewEngine(model.FromIPC(cat, galaxy.App{}), demand.FromApp(sand.App{}), space, sand.App{}.Domain())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, otherDemand); err != nil {
		t.Fatalf("same catalog, different demand model: got %v, want success", err)
	}

	// Same space size but different prices: repricing one node type must
	// flip the fingerprint even though the space shape is identical.
	repriced := testEngine(t, sand.App{}, 2)
	if _, err := Load(path, repriced); !errors.Is(err, ErrStale) {
		t.Fatalf("different capacities: got %v, want ErrStale", err)
	}
}

// TestVersionSkewRejected forges a future-format artifact whose
// checksum is valid; only the version gate can catch it.
func TestVersionSkewRejected(t *testing.T) {
	eng := testEngine(t, galaxy.App{}, 2)
	x, _ := eng.Frontier()
	blob, err := Encode(eng, x)
	if err != nil {
		t.Fatal(err)
	}
	skewed := forgeVersion(blob, FormatVersion+1)
	_, err = Decode(skewed, eng.IndexFingerprint())
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew: got %v, want version error", err)
	}
}

// TestPreviousVersionRejected: a version-2 artifact, whose payload
// held tuples where version 3 holds order keys, is refused as version
// skew even with a valid checksum, so its app takes the start-up build.
func TestPreviousVersionRejected(t *testing.T) {
	eng := testEngine(t, galaxy.App{}, 2)
	x, _ := eng.Frontier()
	blob, err := Encode(eng, x)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Decode(forgeVersion(blob, 2), eng.IndexFingerprint())
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("version-2 artifact: got %v, want a version error", err)
	}
}

// TestKillDuringWrite simulates a writer dying at every interesting
// instant. The canonical path only ever transitions old→new via
// rename, so (a) stray temp files from a dead writer never shadow the
// artifact, and (b) no torn prefix of an artifact is loadable — the
// property that makes temp+fsync+rename sufficient for crash safety.
func TestKillDuringWrite(t *testing.T) {
	eng := testEngine(t, galaxy.App{}, 2)
	dir := t.TempDir()
	path := PathFor(dir, "galaxy")
	if err := Save(path, eng); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A writer killed before rename leaves a temp file; the artifact
	// must still load, and Save must not have left temps of its own.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("Save left %d entries in the directory, want 1", len(entries))
	}
	stray := filepath.Join(dir, filepath.Base(path)+".tmp-dead")
	if err := os.WriteFile(stray, blob[:len(blob)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, eng); err != nil {
		t.Fatalf("stray temp file broke the artifact: %v", err)
	}

	// Every strict prefix — the image a non-atomic in-place writer
	// could have left at the canonical path — must be rejected.
	for n := 0; n < len(blob); n += 7 {
		if _, err := Decode(blob[:n], eng.IndexFingerprint()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("torn prefix of %d/%d bytes loaded: %v", n, len(blob), err)
		}
	}

	// Overwriting an existing artifact goes through the same protocol:
	// afterwards exactly the artifact plus our stray remain.
	if err := Save(path, eng); err != nil {
		t.Fatal(err)
	}
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("re-Save left %d entries, want artifact + stray", len(entries))
	}
	if _, err := Load(path, eng); err != nil {
		t.Fatal(err)
	}
}

// forgeVersion rewrites the version field and recomputes the checksum,
// producing an artifact that passes integrity but not the version gate.
func forgeVersion(blob []byte, v uint32) []byte {
	out := chaos.Truncate(blob, len(blob))
	out[40] = byte(v)
	out[41] = byte(v >> 8)
	out[42] = byte(v >> 16)
	out[43] = byte(v >> 24)
	resum(out)
	return out
}

// resum recomputes the envelope checksum after a deliberate header
// edit, so tests can forge artifacts that pass integrity.
func resum(blob []byte) {
	sum := sha256.Sum256(blob[40:])
	copy(blob[8:40], sum[:])
}
