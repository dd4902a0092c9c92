package estimate

import (
	"math/big"
	"testing"
)

// pow returns b^e as a rational, e of either sign.
func pow(b, e int64) *big.Rat {
	p := new(big.Int).Exp(big.NewInt(b), big.NewInt(max(e, -e)), nil)
	if e < 0 {
		return new(big.Rat).SetFrac(big.NewInt(1), p)
	}
	return new(big.Rat).SetInt(p)
}

// floorLog reports whether j = ⌊log_b(x)⌋: b^j ≤ x < b^(j+1).
func floorLog(b int64, x *big.Rat, j int) bool {
	return pow(b, int64(j)).Cmp(x) <= 0 && x.Cmp(pow(b, int64(j)+1)) < 0
}

// TestFloorLogs checks the fixed-point logarithms shortest relies on
// against exact rationals over every exponent a normal float64 reaches,
// and that the power table covers every k they yield.
func TestFloorLogs(t *testing.T) {
	threeQuarters := big.NewRat(3, 4)
	for q := -1074; q <= 971; q++ {
		k := flog10pow2(q)
		if !floorLog(10, pow(2, int64(q)), k) {
			t.Fatalf("flog10pow2(%d) = %d", q, k)
		}
		if k < minPow10g || k > maxPow10g {
			t.Fatalf("flog10pow2(%d) = %d is outside the power table", q, k)
		}
		if q == -1074 {
			continue // the smallest exponent has regular spacing
		}
		k = flog10ThreeQuartersPow2(q)
		if !floorLog(10, new(big.Rat).Mul(threeQuarters, pow(2, int64(q))), k) {
			t.Fatalf("flog10ThreeQuartersPow2(%d) = %d", q, k)
		}
		if k < minPow10g || k > maxPow10g {
			t.Fatalf("flog10ThreeQuartersPow2(%d) = %d is outside the power table", q, k)
		}
	}
	for k := minPow10g; k <= maxPow10g; k++ {
		if e := flog2pow10(-k); !floorLog(2, pow(10, int64(-k)), e) {
			t.Fatalf("flog2pow10(%d) = %d", -k, e)
		}
	}
}
