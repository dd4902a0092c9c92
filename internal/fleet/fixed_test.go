package fleet

import (
	"math"
	"strconv"
	"testing"
)

// FuzzAppendFixed holds appendFixed to strconv.AppendFloat(v, 'f', prec, 64)
// byte for byte, for every precision it formats itself, on any float's bits.
func FuzzAppendFixed(f *testing.F) {
	boundary := math.Ldexp(1, 50) // the least magnitude that goes to strconv
	for _, v := range []float64{
		0.03125, 0.00015625, 0.0625, 0.1875, // exact binary ties at some precision
		-0.00004, 0.0005, 0.00049999, 0.00005, 0.00004999, -0.0005,
		0, math.Copysign(0, -1), 1, -1, 2.5, 1e21, 0.1, 123.4565,
		math.Ldexp(1, -1074), -math.Ldexp(1, -1074), math.Ldexp(1, -1022),
		math.Ldexp(1, -12), 0.0003, math.Ldexp(1, -11), // a shift of exactly 64 and its neighbour
		boundary, -boundary, math.Nextafter(boundary, 0), -math.Nextafter(boundary, 0),
		math.Ldexp(1, 47) + 0.5, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		for prec := range len(pow10) {
			got := string(appendFixed([]byte("x"), v, prec))
			want := string(strconv.AppendFloat([]byte("x"), v, 'f', prec, 64))
			if got != want {
				t.Fatalf("appendFixed(%#016x = %v, %d) = %q, strconv %q", b, v, prec, got, want)
			}
		}
	})
}
