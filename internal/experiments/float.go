package experiments

import (
	"encoding/json"
	"math"
)

// Float is a float64 result whose JSON form survives non-finite values.
// encoding/json refuses +Inf, -Inf and NaN, which a ratio reaches when an
// app makes no progress (Ext.G's time slicing at reduced budgets), so
// cmd/experiments -json writes them as the strings "+Inf", "-Inf" and
// "NaN". Finite values encode exactly as a float64 does, and fmt prints a
// Float as it prints a float64.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler, reading both forms.
func (f *Float) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"NaN"`:
		*f = Float(math.NaN())
	case `"+Inf"`:
		*f = Float(math.Inf(1))
	case `"-Inf"`:
		*f = Float(math.Inf(-1))
	default:
		return json.Unmarshal(b, (*float64)(f))
	}
	return nil
}
