// Package recycletest checks that a recycled value looks fresh. Storage a
// layer keeps across worlds is handed back scrubbed: every field zero except
// the slices it keeps for their capacity, which are empty and hold nothing.
// Dirty sets every field of a value; after the layer's scrub, CheckScrubbed
// names each field that is not fresh, so a field added later and forgotten
// by the scrub fails the layer's test.
package recycletest

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// Dirty sets every field of *p to a non-zero value, through nested structs
// and arrays: true, 1, "x", a fresh pointer, a map with one entry, a
// function, and for a slice one dirty element with a second dirty one
// beyond its length, so a scrub that empties a slice without clearing its
// capacity leaves something behind.
func Dirty(p any) {
	dirty(settable(reflect.ValueOf(p).Elem()), 0)
}

// CheckScrubbed reports every field of *p that is not its zero value, except
// the slices keep names by dotted field path ("received.ranges"). Each of
// those must be empty, keep the capacity Dirty gave it, and — when its
// elements hold pointers — be zero through that capacity: stale plain data
// pins nothing, a stale pointer pins a world.
func CheckScrubbed(t testing.TB, p any, keep ...string) {
	t.Helper()
	v := reflect.ValueOf(p).Elem()
	for _, k := range keep {
		if f := v.FieldByName(strings.Split(k, ".")[0]); !f.IsValid() {
			t.Fatalf("%s has no field %s to keep", v.Type(), k)
		}
	}
	for _, bad := range unscrubbed(v, "", keep) {
		t.Errorf("%s: recycled field %s is not fresh", v.Type(), bad)
	}
}

// settable returns v writable, unexported or not. v must be addressable.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// maxDepth bounds dirty's recursion through slice element types that
// contain themselves.
const maxDepth = 4

func dirty(v reflect.Value, depth int) {
	t := v.Type()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		v.Set(reflect.New(t.Elem()))
	case reflect.Map:
		m := reflect.MakeMap(t)
		m.SetMapIndex(reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem())
		v.Set(m)
	case reflect.Func:
		v.Set(reflect.MakeFunc(t, func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, t.NumOut())
			for i := range out {
				out[i] = reflect.Zero(t.Out(i))
			}
			return out
		}))
	case reflect.Chan:
		v.Set(reflect.MakeChan(t, 0))
	case reflect.Slice:
		s := reflect.MakeSlice(t, 2, 2)
		if depth < maxDepth {
			dirty(s.Index(0), depth+1)
			dirty(s.Index(1), depth+1)
		}
		v.Set(s.Slice(0, 1))
	case reflect.Array:
		if t.Len() > 0 {
			dirty(v.Index(0), depth+1)
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			dirty(settable(v.Field(i)), depth+1)
		}
	case reflect.Interface:
		if one := reflect.ValueOf(1); one.Type().Implements(t) {
			v.Set(one)
		}
	}
}

// unscrubbed returns the paths under v (at path) that are neither zero nor
// kept storage that is empty and clear to its capacity.
func unscrubbed(v reflect.Value, path string, keep []string) []string {
	if slices.Contains(keep, path) {
		if v.Kind() != reflect.Slice {
			return []string{path + " (kept, but not a slice)"}
		}
		switch {
		case v.Len() != 0:
			return []string{path + " (kept, but not empty)"}
		case v.Cap() == 0:
			return []string{path + " (kept, but its capacity was dropped)"}
		}
		for i, all := 0, v.Slice(0, v.Cap()); i < all.Len() && hasPointers(v.Type().Elem()); i++ {
			if !all.Index(i).IsZero() {
				return []string{path + " (kept, but holds an element beyond its length)"}
			}
		}
		return nil
	}
	if v.Kind() == reflect.Struct && slices.ContainsFunc(keep, func(k string) bool { return path == "" || strings.HasPrefix(k, path+".") }) {
		var bad []string
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			bad = append(bad, unscrubbed(v.Field(i), name, keep)...)
		}
		return bad
	}
	if !v.IsZero() {
		return []string{path}
	}
	return nil
}

// hasPointers reports whether a value of type t can hold a pointer.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.Func,
		reflect.Chan, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
