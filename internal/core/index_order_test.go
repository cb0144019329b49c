package core

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/detrand"
)

// key encodes a configuration of the order's space as its order key,
// the inverse of tuple. The build composes keys level by level, so only
// tests encode a whole tuple.
func (o *tupleOrder) key(t config.Tuple) uint64 {
	var k uint64
	for i, place := range o.place {
		k += uint64(o.rank[i][t.Count(i)]) * place
	}
	return k
}

// randomOrderSpace draws a space of arity 1–16 with limits up to 255,
// halving random limits until Π(m_i + 1) fits in a uint64.
func randomOrderSpace(t *testing.T, rng *rand.Rand) *config.Space {
	t.Helper()
	limits := make([]int, 1+rng.Intn(config.MaxTypes))
	for i := range limits {
		limits[i] = rng.Intn(256)
	}
	for {
		space, err := config.NewSpace(limits)
		if err == nil {
			return space
		}
		if i := rng.Intn(len(limits)); limits[i] > 0 {
			limits[i] /= 2
		} else {
			limits[i] = 1 + rng.Intn(255)
		}
	}
}

// randomMember draws a configuration of space, counts uniform per type.
func randomMember(rng *rand.Rand, space *config.Space) config.Tuple {
	counts := make([]int, space.Types())
	for i := range counts {
		counts[i] = rng.Intn(space.Max(i) + 1)
	}
	return config.MustTuple(counts...)
}

// TestOrderKeyIsLessTupleFastOrder is the order key's property test:
// over random spaces, integer order of keys is lessTupleFast order, equal
// keys are equal tuples, and tuple inverts key. Half the pairs differ at
// one position only, often the last, so the footing check can require
// both prefix rules: mid-tuple a count that is a decimal prefix of
// another sorts first (1 < 10), and in the last position it sorts last
// (10 < 1).
func TestOrderKeyIsLessTupleFastOrder(t *testing.T) {
	rng := rand.New(detSource{detrand.New(0x0de7)})
	midPrefix, lastPrefix := 0, 0
	for s := 0; s < 3000; s++ {
		space := randomOrderSpace(t, rng)
		o := newTupleOrder(space)
		zero := config.MustTuple(make([]int, space.Types())...)
		if o.key(zero) != 0 || o.tuple(0) != zero {
			t.Fatalf("space %d: the empty configuration is not key 0", s)
		}
		for q := 0; q < 100; q++ {
			a, b := randomMember(rng, space), randomMember(rng, space)
			if q%2 == 0 {
				i := space.Types() - 1
				if q%4 == 0 {
					i = rng.Intn(space.Types())
				}
				b = a.WithCount(i, uint8(rng.Intn(space.Max(i)+1)))
			}
			ka, kb := o.key(a), o.key(b)
			if ka >= space.Size()+1 || kb >= space.Size()+1 {
				t.Fatalf("space %d: keys %d, %d past Π(m_i + 1) = %d", s, ka, kb, space.Size()+1)
			}
			if (ka < kb) != lessTupleFast(a, b) || (kb < ka) != lessTupleFast(b, a) || (ka == kb) != (a == b) {
				t.Fatalf("space %d: keys %d, %d disagree with lessTupleFast on %v, %v", s, ka, kb, a, b)
			}
			if o.tuple(ka) != a || o.tuple(kb) != b {
				t.Fatalf("space %d: %v → %d → %v does not round-trip", s, a, ka, o.tuple(ka))
			}
			for i := 0; i < a.Len(); i++ {
				if ca, cb := a.Count(i), b.Count(i); ca != cb {
					if da, db := decTab[ca], decTab[cb]; da.n != db.n && da.d[0] == db.d[0] && (da.n == 1 || db.n == 1 || da.d[1] == db.d[1]) {
						if i == a.Len()-1 {
							lastPrefix++
						} else {
							midPrefix++
						}
					}
					break
				}
			}
		}
	}
	if midPrefix == 0 || lastPrefix == 0 {
		t.Fatalf("%d mid-tuple and %d last-position prefix decisions; the property lost its footing", midPrefix, lastPrefix)
	}
}
