// Binary encoding of the frontier index, the payload inside
// internal/snapshot's checksummed envelope. Only the aggregated pair
// table is serialized: every secondary structure (spans, blocks, the
// staircase) is a pure function of the sorted pairs and is re-derived
// on decode through finishIndex — the
// same code path the build uses — so a decoded index is
// structurally identical to the one it was encoded from, and the format
// cannot drift from the derivation logic.
//
// Layout (all integers little-endian, floats as IEEE-754 bit patterns):
//
//	u64 total        configuration count the index covers (space size)
//	u64 buildWall    original build wall-clock, nanoseconds
//	u32 npairs       pair-table length
//	u8  arity        tuple arity M, shared by every pair
//	npairs × {
//	    u64 u        capacity bits
//	    u64 cu       unit-cost bits
//	    u64 count    configurations aggregated into this pair
//	    u64 minIdx   minimal configuration index of the pair
//	    M × u8       lessTupleFast-minimal member's counts
//	}
//
// DecodeFrontierIndex is strict: any structural violation — wrong
// length, unsorted or non-finite pairs, zero counts, a population that
// does not sum back to total — is rejected, so a corrupted artifact
// that somehow passes the envelope checksum still cannot produce wrong
// answers.
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/units"
)

// codecHeaderLen is the fixed prefix before the pair records: total,
// buildWall, npairs, arity.
const codecHeaderLen = 8 + 8 + 4 + 1

// pairRecordLen is the fixed per-pair size excluding the arity-sized
// tuple tail.
const pairRecordLen = 8 + 8 + 8 + 8

// parallelCodecMin is the smallest pair count per worker worth a
// goroutine in the decode and the derivation; a table below it is one
// chunk.
const parallelCodecMin = 1 << 14

// chunkWorkers is the worker count for an npairs-pair decode or
// derivation: GOMAXPROCS, capped at one per parallelCodecMin pairs.
func chunkWorkers(npairs int) int {
	workers := runtime.GOMAXPROCS(0)
	if most := 1 + npairs/parallelCodecMin; workers > most {
		workers = most
	}
	return workers
}

// forChunks splits [0, n) into at most workers contiguous, ascending
// ranges and runs fn(w, lo, hi) on each concurrently, returning once
// all are done. With one worker it is a single walk over [0, n).
func forChunks(n, workers int, fn func(w, lo, hi int)) {
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, lo, hi)
		}()
	}
	wg.Wait()
}

// EncodeBinary serializes the index to its snapshot payload form. The
// encoding is deterministic: the pair table is already totally ordered,
// so equal indexes produce equal bytes.
func (x *FrontierIndex) EncodeBinary() []byte {
	arity := 0
	if len(x.pairs) > 0 {
		arity = x.pairs[0].lessMin.Len()
	}
	buf := make([]byte, 0, codecHeaderLen+len(x.pairs)*(pairRecordLen+arity))
	buf = binary.LittleEndian.AppendUint64(buf, x.total)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(x.buildWall.Nanoseconds()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x.pairs)))
	buf = append(buf, byte(arity))
	for i := range x.pairs {
		pr := &x.pairs[i]
		//lint:allow unitsafe serialization needs the exact IEEE bit pattern; the typed value round-trips bit-identically
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(pr.u)))
		//lint:allow unitsafe serialization needs the exact IEEE bit pattern; the typed value round-trips bit-identically
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(pr.cu)))
		buf = binary.LittleEndian.AppendUint64(buf, pr.count)
		buf = binary.LittleEndian.AppendUint64(buf, pr.minIdx)
		for k := 0; k < arity; k++ {
			buf = append(buf, byte(pr.lessMin.Count(k)))
		}
	}
	return buf
}

// DecodeFrontierIndex parses an EncodeBinary payload back into a full
// index, re-deriving every secondary table, and rejects any payload
// that is not a structurally valid encoding.
func DecodeFrontierIndex(payload []byte) (*FrontierIndex, error) {
	if len(payload) < codecHeaderLen {
		return nil, fmt.Errorf("core: index payload %d bytes, header needs %d", len(payload), codecHeaderLen)
	}
	total := binary.LittleEndian.Uint64(payload[0:])
	buildWall := time.Duration(binary.LittleEndian.Uint64(payload[8:]))
	npairs := int(binary.LittleEndian.Uint32(payload[16:]))
	arity := int(payload[20])
	if npairs < 1 {
		return nil, fmt.Errorf("core: index payload holds no pairs")
	}
	if arity < 1 || arity > config.MaxTypes {
		return nil, fmt.Errorf("core: pair arity %d outside [1, %d]", arity, config.MaxTypes)
	}
	if buildWall < 0 {
		return nil, fmt.Errorf("core: negative build wall-clock")
	}
	record := pairRecordLen + arity
	if want := codecHeaderLen + npairs*record; len(payload) != want {
		return nil, fmt.Errorf("core: index payload %d bytes, %d pairs need exactly %d", len(payload), npairs, want)
	}

	// Chunks validate independently — the lo boundary's sortedness
	// check reads the previous record's raw bytes — so the paper-scale
	// restore parses in parallel and tracks the parallel build it is
	// racing against across core counts.
	pairs := make([]idxPair, npairs)
	workers := chunkWorkers(npairs)
	sums := make([]uint64, workers)
	errs := make([]error, workers)
	forChunks(npairs, workers, func(w, lo, hi int) {
		sums[w], errs[w] = decodeChunk(payload, pairs, record, total, lo, hi)
	})
	// Chunks cover ascending pair ranges, so the lowest-index error is
	// the first bad record whatever the chunk count.
	var population uint64
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
		if sums[w] > total-population {
			return nil, fmt.Errorf("core: pair population exceeds the %d-configuration space", total)
		}
		population += sums[w]
	}
	if population != total {
		return nil, fmt.Errorf("core: pairs aggregate %d configurations, index claims %d", population, total)
	}
	x := finishIndex(pairs, total)
	x.buildWall = buildWall
	return x, nil
}

// decodeChunk parses and validates the pair records in [lo, hi),
// returning the chunk's population sum.
func decodeChunk(payload []byte, pairs []idxPair, record int, total uint64, lo, hi int) (uint64, error) {
	var population uint64
	for i := lo; i < hi; i++ {
		rec := payload[codecHeaderLen+i*record:]
		rec = rec[:record:record]
		pr := &pairs[i]
		pr.u = units.Rate(math.Float64frombits(binary.LittleEndian.Uint64(rec[0:8])))
		pr.cu = units.USDPerHour(math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])))
		pr.count = binary.LittleEndian.Uint64(rec[16:24])
		pr.minIdx = binary.LittleEndian.Uint64(rec[24:32])
		//lint:allow unitsafe finiteness validation of the raw decoded bits, no cross-dimension arithmetic
		if math.IsNaN(float64(pr.u)) || math.IsInf(float64(pr.u), 0) || pr.u < 0 {
			return 0, fmt.Errorf("core: pair %d has invalid capacity", i)
		}
		//lint:allow unitsafe finiteness validation of the raw decoded bits, no cross-dimension arithmetic
		if math.IsNaN(float64(pr.cu)) || math.IsInf(float64(pr.cu), 0) || pr.cu < 0 {
			return 0, fmt.Errorf("core: pair %d has invalid unit cost", i)
		}
		if i > 0 {
			prevU, prevCu := pairs[i-1].u, pairs[i-1].cu
			if i == lo {
				// The previous record belongs to another chunk and may
				// not be parsed yet; read its key straight from the
				// payload instead of coordinating across workers.
				prev := payload[codecHeaderLen+(i-1)*record:]
				prevU = units.Rate(math.Float64frombits(binary.LittleEndian.Uint64(prev[0:8])))
				prevCu = units.USDPerHour(math.Float64frombits(binary.LittleEndian.Uint64(prev[8:16])))
			}
			//lint:allow floateq the pair table is keyed by exact float identity; ordering must be strict on the same bits
			if !(pr.u > prevU || (pr.u == prevU && pr.cu > prevCu)) {
				return 0, fmt.Errorf("core: pair table unsorted at %d", i)
			}
		}
		if pr.count == 0 {
			return 0, fmt.Errorf("core: pair %d aggregates zero configurations", i)
		}
		if pr.minIdx >= total {
			return 0, fmt.Errorf("core: pair %d minIdx %d outside [0, %d)", i, pr.minIdx, total)
		}
		if pr.count > total-population {
			return 0, fmt.Errorf("core: pair population exceeds the %d-configuration space", total)
		}
		population += pr.count
		t, err := config.TupleFromBytes(rec[pairRecordLen:])
		if err != nil {
			return 0, fmt.Errorf("core: pair %d tuple: %w", i, err)
		}
		pr.lessMin = t
	}
	return population, nil
}

// IndexFingerprint is a hex SHA-256 over everything the frontier index
// is a pure function of: the configuration space's per-type limits and
// the catalog's exact per-node capacity and cost bit patterns. Two
// engines with equal fingerprints build bit-identical indexes, so the
// snapshot layer uses it to reject stale artifacts after any catalog,
// price, or space change. Billing is deliberately excluded — the pair
// table is billing-independent (billing enters at query-time pricing).
func (e *Engine) IndexFingerprint() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(e.space.Types()))
	for i := 0; i < e.space.Types(); i++ {
		put(uint64(e.space.Max(i)))
	}
	w, cost := e.caps.NodeArrays()
	for _, r := range w {
		//lint:allow unitsafe fingerprinting hashes the exact IEEE bit pattern; no arithmetic happens on the raw value
		put(math.Float64bits(float64(r)))
	}
	for _, c := range cost {
		//lint:allow unitsafe fingerprinting hashes the exact IEEE bit pattern; no arithmetic happens on the raw value
		put(math.Float64bits(float64(c)))
	}
	return hex.EncodeToString(h.Sum(nil))
}
