// Package snapshot persists built frontier indexes across process
// restarts. A restarted server restores the index in tens of
// milliseconds, a fraction of the ~0.2 s build per app on the paper's
// 10M-configuration catalog, and answers from it at once instead of
// scanning under live traffic while it builds.
//
// The format is a checksummed binary envelope around the index codec in
// internal/core:
//
//	[0:8]    magic "CELIAIDX"
//	[8:40]   SHA-256 over everything after this field
//	[40:44]  format version, little-endian u32
//	[44:76]  engine fingerprint (raw SHA-256; see core.IndexFingerprint)
//	[76:84]  payload length, little-endian u64
//	[84:]    payload (core.FrontierIndex binary encoding)
//
// Load is strict, in the same spirit as internal/store's Load: a
// truncated file, a flipped bit anywhere after the magic, a version
// skew, or a structurally invalid payload all fail with ErrCorrupt; an
// intact artifact built from a different catalog (prices changed, space
// resized) fails with ErrStale. Save is crash-safe: the artifact is
// written to a temp file in the destination directory, fsynced, then
// renamed over the destination, and the directory is fsynced — a crash
// at any point leaves either the old artifact or the new one, never a
// loadable hybrid.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// FormatVersion guards against silently loading an incompatible
// artifact; bump it whenever the envelope or the core codec changes.
//
// Version history:
//
//	1: initial envelope.
//	2: the index became billing-capable — per-hour engines now restore
//	   and serve snapshots instead of bypassing them. The bytes are
//	   unchanged, but version-1 artifacts predate the per-hour
//	   certification and are refused rather than trusted under a
//	   billing policy their build never covered.
//	3: the 32-byte pair. The payload carries the per-type limits and a
//	   span table (capacity, run length), and each pair names its
//	   tie-break member by an order key instead of a tuple: 12 bytes
//	   per span and 32 per pair, against 41 per pair in version 2,
//	   whose artifacts are refused as version skew.
const FormatVersion = 3

var magic = [8]byte{'C', 'E', 'L', 'I', 'A', 'I', 'D', 'X'}

// headerLen is the envelope size before the payload.
const headerLen = 8 + 32 + 4 + 32 + 8

var (
	// ErrCorrupt reports an artifact that is not a bit-exact, well-formed
	// snapshot: wrong magic, failed checksum, version skew, truncation,
	// or a payload the index codec rejects.
	ErrCorrupt = errors.New("snapshot: corrupt artifact")
	// ErrStale reports an intact artifact built from a different catalog
	// or configuration space than the engine loading it.
	ErrStale = errors.New("snapshot: artifact does not match the engine's catalog")
)

// PathFor names the snapshot artifact for one application inside dir.
func PathFor(dir, app string) string {
	return filepath.Join(dir, app+".frontier.snap")
}

// Encode renders the complete artifact for an engine's built frontier
// index: envelope plus payload, checksummed and fingerprinted.
func Encode(eng *core.Engine, x *core.FrontierIndex) ([]byte, error) {
	fp, err := hex.DecodeString(eng.IndexFingerprint())
	if err != nil || len(fp) != 32 {
		return nil, fmt.Errorf("snapshot: engine fingerprint is not a SHA-256: %q", eng.IndexFingerprint())
	}
	payload := x.EncodeBinary()
	blob := make([]byte, headerLen+len(payload))
	copy(blob[0:8], magic[:])
	binary.LittleEndian.PutUint32(blob[40:44], FormatVersion)
	copy(blob[44:76], fp)
	binary.LittleEndian.PutUint64(blob[76:84], uint64(len(payload)))
	copy(blob[84:], payload)
	sum := sha256.Sum256(blob[40:])
	copy(blob[8:40], sum[:])
	return blob, nil
}

// Decode validates an artifact end-to-end and rebuilds the index. The
// fingerprint argument is the loading engine's core.IndexFingerprint;
// a mismatch on an otherwise intact artifact returns ErrStale.
func Decode(blob []byte, fingerprint string) (*core.FrontierIndex, error) {
	if len(blob) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes, envelope needs %d", ErrCorrupt, len(blob), headerLen)
	}
	if !bytes.Equal(blob[0:8], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	// Hashing the whole artifact is about a quarter of a paper-scale
	// restore's CPU, so it runs beside the decode rather than before it.
	// The decoder is strict on any bytes, and nothing it returns is used
	// unless the checksum matches, which is still the first check to
	// report.
	sum := make(chan [sha256.Size]byte, 1)
	go func() { sum <- sha256.Sum256(blob[40:]) }()
	x, err := decodeChecked(blob, fingerprint)
	if s := <-sum; !bytes.Equal(blob[8:40], s[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return x, err
}

// decodeChecked validates the envelope fields after the checksum —
// version, payload length, fingerprint — and decodes the payload.
func decodeChecked(blob []byte, fingerprint string) (*core.FrontierIndex, error) {
	if v := binary.LittleEndian.Uint32(blob[40:44]); v != FormatVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, v, FormatVersion)
	}
	if plen := binary.LittleEndian.Uint64(blob[76:84]); plen != uint64(len(blob)-headerLen) {
		return nil, fmt.Errorf("%w: payload length %d, have %d bytes", ErrCorrupt, plen, len(blob)-headerLen)
	}
	want, err := hex.DecodeString(fingerprint)
	if err != nil || len(want) != 32 {
		return nil, fmt.Errorf("snapshot: engine fingerprint is not a SHA-256: %q", fingerprint)
	}
	if !bytes.Equal(blob[44:76], want) {
		return nil, fmt.Errorf("%w: artifact fingerprint %x, engine %s", ErrStale, blob[44:76], fingerprint)
	}
	x, err := core.DecodeFrontierIndex(blob[headerLen:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return x, nil
}

// Save persists the engine's frontier index (building it first if
// needed) to path with the crash-safe temp+fsync+rename protocol.
func Save(path string, eng *core.Engine) error {
	x, ok := eng.Frontier()
	if !ok {
		return fmt.Errorf("snapshot: catalog does not compress under the pair cap; nothing to save")
	}
	blob, err := Encode(eng, x)
	if err != nil {
		return err
	}
	return writeAtomic(path, blob)
}

// Load reads and fully validates the artifact at path against the
// engine, returning the decoded index without installing it. A missing
// file surfaces as fs.ErrNotExist via the wrapped os error.
func Load(path string, eng *core.Engine) (*core.FrontierIndex, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(blob, eng.IndexFingerprint())
}

// Restore loads the artifact at path and installs it as the engine's
// frontier index. On any error the engine is left untouched.
func Restore(path string, eng *core.Engine) error {
	x, err := Load(path, eng)
	if err != nil {
		return err
	}
	return eng.InstallIndex(x)
}

// writeAtomic writes data to path so that a crash at any instant leaves
// either the previous artifact or the complete new one: the bytes land
// in a same-directory temp file, are fsynced to stable storage, and
// only then renamed over the destination; the directory entry itself is
// fsynced last.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op once renamed
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir flushes the directory entry after a rename; filesystems that
// do not support fsync on directories are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems (and most CI sandboxes) reject fsync on a
	// directory handle; the rename is still ordered after the file's own
	// fsync, which is the property correctness needs, so a refusal here
	// is not an error.
	_ = d.Sync()
	return nil
}
