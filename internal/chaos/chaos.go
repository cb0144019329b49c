// Package chaos is the repository's fault-injection toolkit: small,
// deterministic adversaries for the resilient index lifecycle. Tests
// wire these into the serving path's injection points (snapshot reads,
// background rebuilds, request compute) and into raw snapshot bytes to
// prove that every failure mode resolves to a declared degraded mode —
// never a wrong answer, a hung worker, or a process crash. Nothing in
// the production path imports this package; it exists so the chaos
// suites in internal/snapshot and internal/serving share one vocabulary
// of faults instead of each hand-rolling corruption helpers.
//
// All randomized corruption derives from a detrand source, so a failing
// chaos trial replays exactly from its seed.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/detrand"
)

// ErrInjected is the root of every error this package fabricates;
// assertions use errors.Is to tell injected faults from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// --- Snapshot read faults -------------------------------------------

// SlowReadFile returns a ReadFile hook that stalls for delay before
// each read — a cold NFS mount or an overloaded disk at startup. The
// bytes themselves are intact.
func SlowReadFile(delay time.Duration) func(string) ([]byte, error) {
	return func(path string) ([]byte, error) {
		time.Sleep(delay)
		return os.ReadFile(path)
	}
}

// TornReadFile returns a ReadFile hook that delivers only the first
// keep bytes of the artifact — the on-disk image a crashed non-atomic
// writer would have left behind.
func TornReadFile(keep int) func(string) ([]byte, error) {
	return func(path string) ([]byte, error) {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return Truncate(blob, keep), nil
	}
}

// FailReadFile returns a ReadFile hook that never touches the disk and
// fails with an injected I/O error.
func FailReadFile() func(string) ([]byte, error) {
	return func(path string) ([]byte, error) {
		return nil, fmt.Errorf("%w: read %s", ErrInjected, path)
	}
}

// --- Byte-level corruption ------------------------------------------

// FlipBit returns a copy of blob with one bit inverted. The input is
// never modified.
func FlipBit(blob []byte, bit uint64) []byte {
	out := make([]byte, len(blob))
	copy(out, blob)
	if len(out) > 0 {
		i := (bit / 8) % uint64(len(out))
		out[i] ^= 1 << (bit % 8)
	}
	return out
}

// Truncate returns the first n bytes of blob (a copy); n past the end
// returns the whole blob.
func Truncate(blob []byte, n int) []byte {
	if n < 0 {
		n = 0
	}
	if n > len(blob) {
		n = len(blob)
	}
	out := make([]byte, n)
	copy(out, blob[:n])
	return out
}

// Corruptions derives n deterministic corrupted variants of blob from
// the source: alternating random bit flips and random truncations, the
// two shapes a torn write or bit rot actually produces. Every variant
// differs from the original.
func Corruptions(blob []byte, src *detrand.Source, n int) [][]byte {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 || len(blob) == 0 {
			out = append(out, FlipBit(blob, src.Uint64()))
		} else {
			out = append(out, Truncate(blob, int(src.Uint64()%uint64(len(blob)))))
		}
	}
	return out
}

// --- Rebuild faults -------------------------------------------------

// FailRebuild returns a rebuild hook that fails with an injected error
// without touching the engine, leaving whatever index was serving in
// place.
func FailRebuild() func(*core.Engine) (core.IndexStats, error) {
	return func(*core.Engine) (core.IndexStats, error) {
		return core.IndexStats{}, fmt.Errorf("%w: rebuild failed", ErrInjected)
	}
}

// PanicRebuild returns a rebuild hook that panics mid-rebuild — the
// fault the background rebuild's panic isolation exists for.
func PanicRebuild() func(*core.Engine) (core.IndexStats, error) {
	return func(*core.Engine) (core.IndexStats, error) {
		panic("chaos: injected rebuild panic")
	}
}

// --- Compute faults -------------------------------------------------

// PanicCompute is a Frontdoor compute closure that panics on every
// call, exercising the worker-pool recovery path.
func PanicCompute(context.Context, *core.Engine) ([]byte, error) {
	panic("chaos: injected compute panic")
}

// SlowCompute returns a compute closure that honors ctx while stalling
// for d, then reports how it exited — the shape of a scan-path query on
// a degraded engine.
func SlowCompute(d time.Duration) func(context.Context, *core.Engine) ([]byte, error) {
	return func(ctx context.Context, _ *core.Engine) ([]byte, error) {
		select {
		case <-time.After(d):
			return []byte(`{"slow":true}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// HangCompute is a compute closure that never returns until the
// request context is done — the worst-case worker hog. It surfaces the
// context error so the caller can prove the deadline actually fired.
func HangCompute(ctx context.Context, _ *core.Engine) ([]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
