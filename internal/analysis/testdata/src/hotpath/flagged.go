// Package hotpath is the want-diagnostics corpus for the hotpath
// analyzer: each //voxel:allocfree function below contains exactly one
// known-allocating construct.
package hotpath

import "fmt"

type item struct{ n int }

type boxer interface{ value() int }

func (i item) value() int { return i.n }

// format is annotated but formats.
//
//voxel:allocfree
func format(n int) string {
	return fmt.Sprintf("n=%d", n) // want "fmt\\.Sprintf allocates"
}

// capture builds a closure over enclosing state: the captured frame
// escapes to the heap with the func value.
//
//voxel:allocfree
func capture(n int) func() int {
	inc := func() int { // want "closure captures n"
		n++
		return n
	}
	return inc
}

// box converts a non-pointer concrete value to an interface.
//
//voxel:allocfree
func box(i item) boxer {
	return boxer(i) // want "boxes the value"
}

// grow appends into a fresh destination that can reallocate per call.
//
//voxel:allocfree
func grow(xs []int, n int) []int {
	ys := append(xs, n) // want "append without a recycled destination"
	return ys
}

type ticker struct{ fired int }

func (t *ticker) tick() { t.fired++ }

func schedule(fn func()) { fn() }

// rebind passes a method value: every call binds t in a new closure.
//
//voxel:allocfree
func rebind(t *ticker) {
	schedule(t.tick) // want "method value t\\.tick binds its receiver"
}
