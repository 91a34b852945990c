package stats

import (
	"fmt"
	"reflect"
)

// AddCounters returns a + b over every counter of a counter struct: each
// exported uint64 field, found through nested structs, arrays and slices.
// It is the one arithmetic behind summing interval results.
//
// Everything that is not a counter keeps a's value: pointers, other
// scalars (IDs, enums) and unexported fields, which hold live state rather
// than counts. Slices are combined element by element into a fresh copy;
// an empty slice in a takes b's elements. Neither input is modified.
func AddCounters[T any](a, b T) T {
	return combine(a, b, func(x, y uint64) uint64 { return x + y })
}

// SubCounters returns a - b over every counter, with the rules of
// AddCounters: the counters accumulated after snapshot b of the same
// run. (a + b) - b == a.
func SubCounters[T any](a, b T) T {
	return combine(a, b, func(x, y uint64) uint64 { return x - y })
}

func combine[T any](a, b T, op func(x, y uint64) uint64) T {
	out := a
	apply(reflect.ValueOf(&out).Elem(), reflect.ValueOf(&b).Elem(), op)
	return out
}

// apply folds src's counters into dst, a settable copy of the left operand.
func apply(dst, src reflect.Value, op func(x, y uint64) uint64) {
	switch dst.Kind() {
	case reflect.Uint64:
		dst.SetUint(op(dst.Uint(), src.Uint()))
	case reflect.Struct:
		t := dst.Type()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				apply(dst.Field(i), src.Field(i), op)
			}
		}
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			apply(dst.Index(i), src.Index(i), op)
		}
	case reflect.Slice:
		switch n, m := dst.Len(), src.Len(); {
		case n == 0 && m == 0:
			// Nothing to combine; a nil slice stays nil.
		case n == 0:
			dst.Set(cloneSlice(src))
		case m == 0:
			dst.Set(cloneSlice(dst))
		case n == m:
			fresh := cloneSlice(dst)
			for i := 0; i < n; i++ {
				apply(fresh.Index(i), src.Index(i), op)
			}
			dst.Set(fresh)
		default:
			panic(fmt.Sprintf("stats: combining %s of lengths %d and %d", dst.Type(), n, m))
		}
	}
}

func cloneSlice(v reflect.Value) reflect.Value {
	return reflect.AppendSlice(reflect.MakeSlice(v.Type(), 0, v.Len()), v)
}
