// Package config represents cloud resource configurations and the
// configuration space CELIA searches. A configuration G_j is a tuple
// <m_j,1, …, m_j,M> giving the number of nodes taken from each of the M
// resource types; each count ranges over [0, m_i,max]. The total number
// of configurations is S = Π(m_i,max + 1) − 1 (Eq. 1), excluding the
// empty tuple — 10,077,695 for the paper's nine types with five nodes
// each.
package config

import (
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"sync"
)

// MaxTypes bounds the tuple arity; the paper uses nine.
const MaxTypes = 16

// Tuple is one configuration: node counts per resource type, in catalog
// order. The fixed backing array keeps tuples comparable and cheap to
// copy during enumeration.
type Tuple struct {
	counts [MaxTypes]uint8
	m      uint8 // number of meaningful positions
}

// NewTuple builds a tuple from explicit counts.
func NewTuple(counts []int) (Tuple, error) {
	if len(counts) == 0 || len(counts) > MaxTypes {
		return Tuple{}, arityError(len(counts))
	}
	var t Tuple
	t.m = uint8(len(counts))
	for i, c := range counts {
		if c < 0 || c > 255 {
			return Tuple{}, fmt.Errorf("config: count %d at position %d outside [0, 255]", c, i)
		}
		t.counts[i] = uint8(c)
	}
	return t, nil
}

// TupleFromBytes builds a tuple directly from per-type count bytes,
// the snapshot decoder's hot path: the byte type already guarantees
// every count is in [0, 255], so only the arity needs checking. The
// error is a plain arityError value, not a call, so this inlines into
// the decoder's per-pair loop.
func TupleFromBytes(counts []byte) (Tuple, error) {
	if len(counts) == 0 || len(counts) > MaxTypes {
		return Tuple{}, arityError(len(counts))
	}
	var t Tuple
	t.m = uint8(len(counts))
	copy(t.counts[:], counts)
	return t, nil
}

// arityError reports a tuple arity outside [1, MaxTypes].
type arityError int

func (n arityError) Error() string {
	return fmt.Sprintf("config: tuple arity %d outside [1, %d]", int(n), MaxTypes)
}

// MustTuple is NewTuple for static test data; it panics on error.
func MustTuple(counts ...int) Tuple {
	t, err := NewTuple(counts)
	if err != nil {
		panic(err)
	}
	return t
}

// Len reports the tuple arity M.
func (t Tuple) Len() int { return int(t.m) }

// Count reports m_j,i, the node count of type i.
func (t Tuple) Count(i int) int { return int(t.counts[i]) }

// WithCount returns t with type i's count set to c. It panics unless i
// is below Len.
func (t Tuple) WithCount(i int, c uint8) Tuple {
	t.counts[:t.m][i] = c
	return t
}

// Counts returns the counts as a fresh slice.
func (t Tuple) Counts() []int {
	out := make([]int, t.m)
	for i := range out {
		out[i] = int(t.counts[i])
	}
	return out
}

// TotalNodes sums all node counts.
func (t Tuple) TotalNodes() int {
	var n int
	for i := 0; i < int(t.m); i++ {
		n += int(t.counts[i])
	}
	return n
}

// IsEmpty reports whether the tuple uses no nodes at all (the one
// configuration Eq. 1 excludes).
func (t Tuple) IsEmpty() bool { return t.TotalNodes() == 0 }

// String renders the paper's bracket notation, e.g. [5,5,5,3,0,0,0,0,0].
func (t Tuple) String() string {
	parts := make([]string, t.m)
	for i := range parts {
		parts[i] = fmt.Sprintf("%d", t.counts[i])
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Space is the configuration space: per-type maximum node counts
// m_i,max. The paper caps every type at five nodes.
type Space struct {
	maxPerType []int
}

// NewSpace builds a space with the given per-type limits. At least one
// limit must be positive: with every type capped at zero nodes the
// space holds no configuration (S = 0), and no search has anything to
// return. Π(m_i,max + 1) must fit in a uint64, since configuration
// indexes and the frontier index's order keys are mixed-radix numbers
// below it.
func NewSpace(maxPerType []int) (*Space, error) {
	if len(maxPerType) == 0 || len(maxPerType) > MaxTypes {
		return nil, fmt.Errorf("config: %d types outside [1, %d]", len(maxPerType), MaxTypes)
	}
	nonEmpty := false
	product := uint64(1)
	for i, m := range maxPerType {
		if m < 0 || m > 255 {
			return nil, fmt.Errorf("config: m_%d,max = %d outside [0, 255]", i, m)
		}
		nonEmpty = nonEmpty || m > 0
		var hi uint64
		if hi, product = bits.Mul64(product, uint64(m+1)); hi != 0 {
			return nil, fmt.Errorf("config: Π(m_i,max + 1) over %v overflows 64 bits", maxPerType)
		}
	}
	if !nonEmpty {
		return nil, fmt.Errorf("config: every m_i,max is 0, so the space holds no configuration")
	}
	return &Space{maxPerType: append([]int(nil), maxPerType...)}, nil
}

// Uniform builds a space of m types each capped at maxNodes — the
// paper's setup is Uniform(9, 5).
func Uniform(types, maxNodes int) (*Space, error) {
	limits := make([]int, types)
	for i := range limits {
		limits[i] = maxNodes
	}
	return NewSpace(limits)
}

// Types reports M.
func (s *Space) Types() int { return len(s.maxPerType) }

// Max reports m_i,max.
func (s *Space) Max(i int) int { return s.maxPerType[i] }

// Size is Eq. 1: S = Π(m_i,max + 1) − 1.
func (s *Space) Size() uint64 {
	size := uint64(1)
	for _, m := range s.maxPerType {
		size *= uint64(m + 1)
	}
	return size - 1
}

// Contains reports whether the tuple is a member of the space (right
// arity, within limits, non-empty).
func (s *Space) Contains(t Tuple) bool {
	if t.Len() != s.Types() || t.IsEmpty() {
		return false
	}
	for i := 0; i < t.Len(); i++ {
		if t.Count(i) > s.maxPerType[i] {
			return false
		}
	}
	return true
}

// AtIndex decodes a mixed-radix index in [0, Size()) to its tuple. The
// empty tuple would be index −1; indices therefore map offset by one:
// index k decodes k+1 in plain mixed radix, little-endian in type
// position.
func (s *Space) AtIndex(k uint64) (Tuple, error) {
	if k >= s.Size() {
		return Tuple{}, fmt.Errorf("config: index %d outside [0, %d)", k, s.Size())
	}
	v := k + 1 // skip the empty configuration
	var t Tuple
	t.m = uint8(len(s.maxPerType))
	for i, m := range s.maxPerType {
		radix := uint64(m + 1)
		t.counts[i] = uint8(v % radix)
		v /= radix
	}
	return t, nil
}

// IndexOf is the inverse of AtIndex.
func (s *Space) IndexOf(t Tuple) (uint64, error) {
	if !s.Contains(t) {
		return 0, fmt.Errorf("config: tuple %v not in space", t)
	}
	var v uint64
	mult := uint64(1)
	for i, m := range s.maxPerType {
		v += uint64(t.Count(i)) * mult
		mult *= uint64(m + 1)
	}
	return v - 1, nil
}

// ForEach invokes fn for every configuration in the space, in index
// order, on the calling goroutine. fn must not retain the tuple's
// address. Returning false stops the walk early; ForEach reports
// whether the walk completed.
func (s *Space) ForEach(fn func(Tuple) bool) bool {
	// Odometer enumeration: increment position 0 fastest, matching
	// AtIndex's little-endian order. Start from the first non-empty
	// tuple (not necessarily [1,0,…,0]: a type may have a zero limit).
	t, err := s.AtIndex(0)
	if err != nil {
		return true // space of size zero: nothing to visit
	}
	for {
		if !fn(t) {
			return false
		}
		i := 0
		for {
			if i == int(t.m) {
				return true // odometer rolled over: done
			}
			if int(t.counts[i]) < s.maxPerType[i] {
				t.counts[i]++
				break
			}
			t.counts[i] = 0
			i++
		}
	}
}

// ForEachParallel partitions the index space into contiguous chunks and
// walks them on workers goroutines (default: GOMAXPROCS when workers ≤
// 0). fn is called concurrently; worker is the worker's id in
// [0, workers) so callers can shard accumulators without locking.
func (s *Space) ForEachParallel(workers int, fn func(worker int, t Tuple)) {
	s.ForEachParallelIndexed(workers, func(worker int, _ uint64, t Tuple) {
		fn(worker, t)
	})
}

// ForEachParallelIndexed is ForEachParallel with each tuple's own
// mixed-radix index passed to fn, sparing callers that need the index
// (frontier IDs, tie-break ordering) one IndexOf re-encode per tuple.
// Each worker's chunk is a contiguous, ascending index range; chunk
// boundaries depend only on (Size, workers), never on scheduling.
func (s *Space) ForEachParallelIndexed(workers int, fn func(worker int, k uint64, t Tuple)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	size := s.Size()
	if uint64(workers) > size {
		workers = int(size)
	}
	var wg sync.WaitGroup
	chunk := size / uint64(workers)
	for w := 0; w < workers; w++ {
		lo := uint64(w) * chunk
		hi := lo + chunk
		if w == workers-1 {
			hi = size
		}
		wg.Add(1)
		go func(w int, lo, hi uint64) {
			defer wg.Done()
			t, err := s.AtIndex(lo)
			if err != nil {
				return // empty chunk (size < workers, guarded above)
			}
			for k := lo; k < hi; k++ {
				fn(w, k, t)
				// Advance the odometer in place: cheaper than
				// re-decoding every index.
				i := 0
				for i < int(t.m) {
					if int(t.counts[i]) < s.maxPerType[i] {
						t.counts[i]++
						break
					}
					t.counts[i] = 0
					i++
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
}
