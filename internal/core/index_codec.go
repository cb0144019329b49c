// Binary encoding of the frontier index, the payload inside
// internal/snapshot's checksummed envelope. The pair table, its spans and
// the space's per-type limits are serialized; every other structure (the
// blocks, the staircase, the candidates, the order-key tables) is a pure
// function of those and is re-derived on decode through finishIndex —
// the same code path the build uses — so a decoded index is
// structurally identical to the one it was encoded from, and the format
// cannot drift from the derivation logic.
//
// Layout (all integers little-endian, floats as IEEE-754 bit patterns):
//
//	u64 total        configuration count the index covers (space size)
//	u64 buildWall    original build wall-clock, nanoseconds
//	u32 nspans       span-table length
//	u32 npairs       pair-table length
//	u8  arity        M, the number of types
//	M × u8           per-type limits m_i,max; Π(m_i + 1) − 1 = total
//	nspans × {
//	    u64 u        capacity bits
//	    u32 run      pairs in the span, which follow the previous span's
//	}
//	npairs × {
//	    u64 cu       unit-cost bits
//	    u64 count    configurations aggregated into this pair
//	    u64 minIdx   minimal configuration index of the pair
//	    u64 key      order key of the lessTupleFast-minimal member
//	}
//
// 12 bytes per span and 32 per pair. DecodeFrontierIndex is strict: any
// structural violation — wrong length, limits that do not reproduce
// total, unsorted or non-finite spans or pairs, empty spans, runs that do
// not cover the pairs, zero counts, an order key of the empty
// configuration or past the space, a population that does not sum back
// to total — is rejected, so a corrupted artifact that somehow passes the
// envelope checksum still cannot produce wrong answers.
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

// codecHeaderLen is the fixed prefix before the per-type limits: total,
// buildWall, nspans, npairs, arity.
const codecHeaderLen = 8 + 8 + 4 + 4 + 1

// spanRecordLen and pairRecordLen are the per-span and per-pair sizes.
const (
	spanRecordLen = 8 + 4
	pairRecordLen = 8 + 8 + 8 + 8
)

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
	space := x.order.space
	arity := space.Types()
	buf := make([]byte, 0, codecHeaderLen+arity+len(x.spans)*spanRecordLen+len(x.pairs)*pairRecordLen)
	buf = binary.LittleEndian.AppendUint64(buf, space.Size())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(x.buildWall.Nanoseconds()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x.spans)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x.pairs)))
	buf = append(buf, byte(arity))
	for i := 0; i < arity; i++ {
		buf = append(buf, byte(space.Max(i)))
	}
	for _, sp := range x.spans {
		//lint:allow unitsafe serialization needs the exact IEEE bit pattern; the typed value round-trips bit-identically
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(sp.u)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(sp.end-sp.start))
	}
	for i := range x.pairs {
		pr := &x.pairs[i]
		//lint:allow unitsafe serialization needs the exact IEEE bit pattern; the typed value round-trips bit-identically
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(pr.cu)))
		buf = binary.LittleEndian.AppendUint64(buf, pr.count)
		buf = binary.LittleEndian.AppendUint64(buf, pr.minIdx)
		buf = binary.LittleEndian.AppendUint64(buf, pr.key)
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
	nspans := int(binary.LittleEndian.Uint32(payload[16:]))
	npairs := int(binary.LittleEndian.Uint32(payload[20:]))
	arity := int(payload[24])
	if nspans < 1 || npairs < 1 {
		return nil, fmt.Errorf("core: index payload holds no pairs")
	}
	if arity < 1 || arity > config.MaxTypes {
		return nil, fmt.Errorf("core: index arity %d outside [1, %d]", arity, config.MaxTypes)
	}
	if buildWall < 0 {
		return nil, fmt.Errorf("core: negative build wall-clock")
	}
	head := codecHeaderLen + arity
	if want := head + nspans*spanRecordLen + npairs*pairRecordLen; len(payload) != want {
		return nil, fmt.Errorf("core: index payload %d bytes, %d spans and %d pairs need exactly %d", len(payload), nspans, npairs, want)
	}
	limits := make([]int, arity)
	for i := range limits {
		limits[i] = int(payload[codecHeaderLen+i])
	}
	space, err := config.NewSpace(limits)
	if err != nil {
		return nil, fmt.Errorf("core: index limits: %w", err)
	}
	if space.Size() != total {
		return nil, fmt.Errorf("core: index limits %v hold %d configurations, index claims %d", limits, space.Size(), total)
	}
	spans, err := decodeSpans(payload[head:head+nspans*spanRecordLen], npairs)
	if err != nil {
		return nil, err
	}

	// Chunks of whole spans validate independently, so the paper-scale
	// restore parses in parallel and tracks the parallel build it is
	// racing against across core counts.
	pairRecs := payload[head+nspans*spanRecordLen:]
	pairs := make([]idxPair, npairs)
	workers := chunkWorkers(npairs)
	sums := make([]uint64, workers)
	errs := make([]error, workers)
	forChunks(nspans, workers, func(w, lo, hi int) {
		sums[w], errs[w] = decodePairs(pairRecs, pairs, spans[lo:hi], total)
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
	x := finishIndex(pairs, spans, space)
	x.buildWall = buildWall
	return x, nil
}

// decodeSpans parses and validates the span records: finite capacities
// in strictly ascending order, each run non-empty, the runs covering
// exactly npairs pairs.
func decodeSpans(recs []byte, npairs int) ([]idxSpan, error) {
	spans := make([]idxSpan, len(recs)/spanRecordLen)
	start := 0
	for si := range spans {
		rec := recs[si*spanRecordLen:][:spanRecordLen:spanRecordLen]
		u := units.Rate(math.Float64frombits(binary.LittleEndian.Uint64(rec[0:8])))
		run := int(binary.LittleEndian.Uint32(rec[8:12]))
		//lint:allow unitsafe finiteness validation of the raw decoded bits, no cross-dimension arithmetic
		if math.IsNaN(float64(u)) || math.IsInf(float64(u), 0) || u < 0 {
			return nil, fmt.Errorf("core: span %d has invalid capacity", si)
		}
		if si > 0 && u <= spans[si-1].u {
			return nil, fmt.Errorf("core: span capacities unsorted at %d", si)
		}
		if run == 0 {
			return nil, fmt.Errorf("core: span %d holds no pairs", si)
		}
		if run > npairs-start {
			return nil, fmt.Errorf("core: span runs exceed the %d pairs", npairs)
		}
		spans[si] = idxSpan{u: u, start: start, end: start + run}
		start += run
	}
	if start != npairs {
		return nil, fmt.Errorf("core: span runs cover %d of the %d pairs", start, npairs)
	}
	return spans, nil
}

// decodePairs parses and validates the pair records of spans, whole
// spans of the table, returning their population sum. A valid order key
// names a non-empty configuration of the space: 0 < key < Π(m_i + 1),
// which is total + 1.
func decodePairs(recs []byte, pairs []idxPair, spans []idxSpan, total uint64) (uint64, error) {
	var population uint64
	for _, sp := range spans {
		for i := sp.start; i < sp.end; i++ {
			rec := recs[i*pairRecordLen:][:pairRecordLen:pairRecordLen]
			pr := &pairs[i]
			pr.cu = units.USDPerHour(math.Float64frombits(binary.LittleEndian.Uint64(rec[0:8])))
			pr.count = binary.LittleEndian.Uint64(rec[8:16])
			pr.minIdx = binary.LittleEndian.Uint64(rec[16:24])
			pr.key = binary.LittleEndian.Uint64(rec[24:32])
			//lint:allow unitsafe finiteness validation of the raw decoded bits, no cross-dimension arithmetic
			if math.IsNaN(float64(pr.cu)) || math.IsInf(float64(pr.cu), 0) || pr.cu < 0 {
				return 0, fmt.Errorf("core: pair %d has invalid unit cost", i)
			}
			if i > sp.start && pr.cu <= pairs[i-1].cu {
				return 0, fmt.Errorf("core: pair unit costs unsorted at %d", i)
			}
			if pr.count == 0 {
				return 0, fmt.Errorf("core: pair %d aggregates zero configurations", i)
			}
			if pr.minIdx >= total {
				return 0, fmt.Errorf("core: pair %d minIdx %d outside [0, %d)", i, pr.minIdx, total)
			}
			if pr.key == 0 || pr.key > total {
				return 0, fmt.Errorf("core: pair %d order key %d outside [1, %d]", i, pr.key, total)
			}
			if pr.count > total-population {
				return 0, fmt.Errorf("core: pair population exceeds the %d-configuration space", total)
			}
			population += pr.count
		}
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
