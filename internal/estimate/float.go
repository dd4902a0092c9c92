package estimate

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// The codec's float kernels. Decoding a number span without an exponent
// whose digits fit a uint64 is exact arithmetic: Clinger's one division
// below 2^53, one 128-by-64 integer division above. Encoding finds the
// shortest decimal that round-trips with Schubfach (R. Giulietti, "The
// Schubfach way to render doubles", 2020) and lays it out as
// strconv.AppendFloat(v, 'g', -1, 64) does, byte for byte.

// pow10 and pow10u hold the powers of ten up to 10^maxDigits, all exact in
// float64 and in uint64.
var pow10 = [maxDigits + 1]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

var pow10u = [maxDigits + 1]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// exactFloat is the correctly rounded value of a span without an exponent
// whose digits all fit mant (plain), frac of them after the point, so
// frac ≤ maxDigits. Below 2^53, mant and 10^frac are exact in float64, so
// one float division is correctly rounded (Clinger); above, divFloat
// divides the integers.
func exactFloat(mant uint64, frac int, plain, neg bool) (float64, bool) {
	if !plain {
		return 0, false
	}
	var v float64
	if mant < 1<<53 {
		v = float64(mant) / pow10[frac]
	} else {
		v = divFloat(mant, frac)
	}
	if neg {
		v = -v
	}
	return v, true
}

// divFloat returns mant/10^frac correctly rounded, for 2^53 ≤ mant and
// frac ≤ 19. Both operands are shifted to have their top bit set, the
// dividend one bit less when it is not below the divisor, so the 128-by-64
// quotient q has exactly 64 bits; its low 11 bits and the remainder (the
// sticky bit) round it to 53 bits, ties to even. Every such quotient is a
// normal float64.
func divFloat(mant uint64, frac int) float64 {
	d := pow10u[frac]
	ls, ds := bits.LeadingZeros64(mant), bits.LeadingZeros64(d)
	mn, dn := mant<<ls, d<<ds
	// mant/d = (hi·2^64 + lo)/dn · 2^e
	hi, lo, e := mn, uint64(0), ds-ls-64
	if mn >= dn {
		hi, lo, e = mn>>1, mn<<63, e+1
	}
	q, r := bits.Div64(hi, lo, dn)
	m := q >> 11
	if low := q & (1<<11 - 1); low > 1<<10 || low == 1<<10 && (r != 0 || m&1 == 1) {
		m++
		if m == 1<<53 {
			m, e = m>>1, e+1
		}
	}
	// The value is m·2^(e+11), m in [2^52, 2^53).
	return math.Float64frombits(uint64(e+11+52+1023)<<52 | m&(1<<52-1))
}

// appendFloat appends v exactly as strconv.AppendFloat(buf, v, 'g', -1, 64)
// does. ±0, common in answers, is written here; subnormals, ±Inf and NaN go
// to strconv.
func appendFloat(buf []byte, v float64) []byte {
	b := math.Float64bits(v)
	if b<<1 == 0 {
		if b != 0 {
			buf = append(buf, '-')
		}
		return append(buf, '0')
	}
	bq := int(b>>52) & 0x7FF
	if bq == 0 || bq == 0x7FF {
		return strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	if b>>63 != 0 {
		buf = append(buf, '-')
	}
	// v = c·2^q, c in [2^52, 2^53)
	c, q := b&(1<<52-1)|1<<52, bq-1075
	if mq := -q; 0 < mq && mq < 53 && c>>mq<<mq == c {
		return appendDecimal(buf, c>>mq, 0) // an integer below 2^53 is its own shortest form
	}
	f, e := shortest(c, q)
	return appendDecimal(buf, f, e)
}

// shortest returns the decimal f·10^e of fewest digits that rounds to the
// normal c·2^q, the closest to it among those, ties to an even f:
// Schubfach's figure 7 with the integer arithmetic of its figure 9.
// The interval of reals that round to c·2^q is [cbl, cbr]/4 · 2^q, its
// ends included when c is even; at c = 2^52 the lower neighbour is closer.
// Scaled by 10^-k into vbl ≤ vb ≤ vbr (rounded to odd, which keeps every
// comparison with a multiple of 4 exact), the candidates are s = vb/4 and
// s+1, or a multiple of ten when one of those two lies in the interval.
func shortest(c uint64, q int) (uint64, int) {
	out := c & 1
	cb := c << 2
	cbr, cbl, k := cb+2, cb-2, flog10pow2(q)
	if c == 1<<52 && q > -1074 {
		cbl, k = cb-1, flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &pow10g[k-minPow10g]
	vb, vbl, vbr := rop(g, cb<<h), rop(g, cbl<<h), rop(g, cbr<<h)

	s := vb >> 2
	if s >= 100 {
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin, wpin := vbl+out <= sp10<<2, tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin, win := vbl+out <= s<<2, t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb) - int64((s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop is cp·g·2^-127 rounded to odd, g = g[0]·2^63 + g[1].
func rop(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	const m63 = 1<<63 - 1
	return (y1 + z>>63) | (z&m63+m63)>>63
}

// flog10pow2 is ⌊log10(2^e)⌋, flog10ThreeQuartersPow2 ⌊log10(3/4·2^e)⌋ and
// flog2pow10 ⌊log2(10^e)⌋, exact for the exponents shortest uses
// (TestFloorLogs).
func flog10pow2(e int) int { return e * 661_971_961_083 >> 41 }

func flog10ThreeQuartersPow2(e int) int { return (e*661_971_961_083 - 274_743_187_321) >> 41 }

func flog2pow10(e int) int { return e * 913_124_641_741 >> 38 }

// The k that shortest looks up: ⌊log10⌋ of the normal doubles' 2^q.
const (
	minPow10g = -324
	maxPow10g = 292
)

// pow10g[k-minPow10g] is g for 10^-k: with 10^-k = β·2^r and 2^125 ≤ β <
// 2^126, g = ⌊β⌋+1, split into its high 63 bits and its low 63.
var pow10g = buildPow10g()

func buildPow10g() *[maxPow10g - minPow10g + 1][2]uint64 {
	var tab [maxPow10g - minPow10g + 1][2]uint64
	num, den, g, t := new(big.Int), new(big.Int), new(big.Int), new(big.Int)
	one, ten, mask := big.NewInt(1), big.NewInt(10), new(big.Int).SetUint64(1<<63-1)
	// set fills k's entry from p = 10^|k|: β = 10^-k · 2^(125-r'), with
	// r' = ⌊log2(10^-k)⌋.
	set := func(k int, p *big.Int) {
		num.Set(one)
		den.Set(one)
		if k <= 0 {
			num.Set(p)
		} else {
			den.Set(p)
		}
		if s := 125 - flog2pow10(-k); s >= 0 {
			num.Lsh(num, uint(s))
		} else {
			den.Lsh(den, uint(-s))
		}
		g.Add(g.Quo(num, den), one)
		tab[k-minPow10g] = [2]uint64{t.Rsh(g, 63).Uint64(), t.And(g, mask).Uint64()}
	}
	p := big.NewInt(1)
	for k := 0; k >= minPow10g; k-- {
		set(k, p)
		p.Mul(p, ten)
	}
	p.Set(ten)
	for k := 1; k <= maxPow10g; k++ {
		set(k, p)
		p.Mul(p, ten)
	}
	return &tab
}

// digitPairs holds "00" to "99".
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// putPair writes the two digits of p < 100 into b.
func putPair(b []byte, p uint32) {
	b[0], b[1] = digitPairs[2*p], digitPairs[2*p+1]
}

// appendDecimal appends f·10^e, f > 0, in strconv's shortest 'g' layout:
// f's digits without trailing zeros, in exponent form (d.ddde±dd) when the
// decimal exponent is below -4 or at least 6, in positional form
// otherwise.
func appendDecimal(buf []byte, f uint64, e int) []byte {
	// The digits, right to left: eight at a time in 32-bit arithmetic,
	// then the leading ones; trailing zeros are dropped afterwards.
	var d [20]byte
	i := len(d)
	for f >= 1e8 {
		q := f / 1e8
		r := uint32(f - q*1e8)
		hi, lo := r/1e4, r%1e4
		putPair(d[i-8:], hi/100)
		putPair(d[i-6:], hi%100)
		putPair(d[i-4:], lo/100)
		putPair(d[i-2:], lo%100)
		i -= 8
		f = q
	}
	r := uint32(f)
	for r >= 100 {
		i -= 2
		putPair(d[i:], r%100)
		r /= 100
	}
	if r >= 10 {
		i -= 2
		putPair(d[i:], r)
	} else {
		i--
		d[i] = byte('0' + r)
	}
	end := len(d)
	for d[end-1] == '0' {
		end--
		e++
	}
	digs := d[i:end]
	nd := len(digs)
	dp := nd + e // digits before the point
	switch exp := dp - 1; {
	case exp < -4 || exp >= 6:
		buf = append(buf, digs[0])
		if nd > 1 {
			buf = append(buf, '.')
			buf = append(buf, digs[1:]...)
		}
		sign := byte('+')
		if exp < 0 {
			sign, exp = '-', -exp
		}
		buf = append(buf, 'e', sign)
		if exp >= 100 {
			buf = append(buf, byte('0'+exp/100))
			exp %= 100
		}
		return append(buf, digitPairs[2*exp], digitPairs[2*exp+1])
	case dp <= 0:
		buf = append(buf, "0.000"[:2-dp]...)
		return append(buf, digs...)
	case dp >= nd:
		buf = append(buf, digs...)
		return append(buf, "00000"[:dp-nd]...)
	}
	buf = append(buf, digs[:dp]...)
	buf = append(buf, '.')
	return append(buf, digs[dp:]...)
}
