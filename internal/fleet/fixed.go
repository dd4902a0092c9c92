package fleet

import (
	"math"
	"math/bits"
	"strconv"
)

// pow10 holds 10^prec for the precisions appendFixed formats itself.
var pow10 = [...]uint64{1, 10, 100, 1_000, 10_000}

// fixedMinShift bounds appendFixed's exact range. A finite float is
// mant / 2^shift with mant < 2^53, and mant·10^4 < 2^67, so from shift 3 on
// the rounded quotient fits in a uint64: every |v| < 2^50 is in range.
const fixedMinShift = 3

// appendFixed appends v in strconv's 'f' format with prec ≤ 4 fraction
// digits, byte for byte what strconv.AppendFloat(dst, v, 'f', prec, 64)
// appends. strconv serves a fixed precision only through its
// multi-precision decimal; here the exact product mant·10^prec is formed in
// 128 bits, shifted right by the binary exponent, and the remainder rounds
// the quotient to nearest, ties to even — the same correctly rounded value.
// A negative v keeps its sign even when it rounds to zero ("-0.0000"), as
// strconv's does. NaN, ±Inf, |v| ≥ 2^50 and prec > 4 go to strconv.
func appendFixed(dst []byte, v float64, prec int) []byte {
	b := math.Float64bits(v)
	exp := int(b>>52) & 0x7ff
	mant := b & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit, the smallest exponent
	} else {
		mant |= 1 << 52
	}
	shift := 1075 - exp // |v| = mant / 2^shift
	if shift < fixedMinShift || prec < 0 || prec >= len(pow10) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64) // NaN and ±Inf have shift < 0
	}
	hi, lo := bits.Mul64(mant, pow10[prec])
	var q uint64 // the product shifted right by shift, truncated
	var up bool  // whether the remainder rounds q up
	switch {
	case shift < 64:
		q = hi<<(64-shift) | lo>>shift
		rem, half := lo&(1<<shift-1), uint64(1)<<(shift-1)
		up = rem > half || rem == half && q&1 == 1
	case shift == 64:
		q = hi
		up = lo > 1<<63 || lo == 1<<63 && q&1 == 1
	case shift < 128:
		s := uint(shift - 64)
		q = hi >> s
		rem, half := hi&(1<<s-1), uint64(1)<<(s-1)
		up = rem > half || rem == half && (lo != 0 || q&1 == 1)
	}
	// shift ≥ 128: the product is below 2^67, under half of 2^shift, so
	// the value rounds to zero and q stays 0.
	if up {
		q++
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, q/pow10[prec], 10)
	if prec == 0 {
		return dst
	}
	dst = append(dst, '.')
	frac := q % pow10[prec]
	for d := pow10[prec] / 10; d > 0; d /= 10 {
		dst = append(dst, byte('0'+frac/d%10))
	}
	return dst
}
