package sim

import (
	"reflect"
	"testing"
)

// TestAppFieldsCoverAppInterval holds AppFields to AppInterval: one row per
// counter, App excluded, in declaration order, each with exactly one getter
// of the counter's type that reads that counter and no other.
func TestAppFieldsCoverAppInterval(t *testing.T) {
	typ := reflect.TypeOf(AppInterval{})
	if typ.Field(0).Name != "App" {
		t.Fatalf("AppInterval's first field is %s, want App", typ.Field(0).Name)
	}
	if got, want := len(AppFields), typ.NumField()-1; got != want {
		t.Fatalf("AppFields has %d rows, AppInterval %d counters", got, want)
	}
	names := map[string]bool{}
	for i := range AppFields {
		f := &AppFields[i]
		sf := typ.Field(i + 1)
		if names[f.Name] {
			t.Errorf("row %d: name %q repeated", i, f.Name)
		}
		names[f.Name] = true
		getters := 0
		for _, set := range []bool{f.Int != nil, f.Uint != nil, f.Float != nil} {
			if set {
				getters++
			}
		}
		if getters != 1 {
			t.Errorf("row %q: %d getters, want 1", f.Name, getters)
			continue
		}
		if kind := getterKind(f); kind != sf.Type.Kind() {
			t.Errorf("row %q: %v getter for %s, a %v", f.Name, kind, sf.Name, sf.Type.Kind())
		}
		// Only field i+1 is non-zero, so only row i may read non-zero.
		var a AppInterval
		v := reflect.ValueOf(&a).Elem().Field(i + 1)
		switch v.Kind() {
		case reflect.Int:
			v.SetInt(7)
		case reflect.Uint64:
			v.SetUint(7)
		case reflect.Float64:
			v.SetFloat(7)
		}
		for j := range AppFields {
			if got := string(AppFields[j].Append(nil, &a, -1)); (got == "7") != (i == j) {
				t.Errorf("with only %s set, row %q reads %s", sf.Name, AppFields[j].Name, got)
			}
		}
	}
}

func getterKind(f *AppField) reflect.Kind {
	switch {
	case f.Int != nil:
		return reflect.Int
	case f.Uint != nil:
		return reflect.Uint64
	default:
		return reflect.Float64
	}
}
