package shrink

import (
	"reflect"
	"testing"
)

// TestShrinkKeepsEveryNeededElement pins the greedy contract on a
// predicate that needs two separated elements: the result is exactly
// those two, in their original order, and the input is not modified.
func TestShrinkKeepsEveryNeededElement(t *testing.T) {
	in := []int{5, 1, 8, 2, 9, 3}
	fails := func(xs []int) bool {
		var one, three bool
		for _, x := range xs {
			one = one || x == 1
			three = three || x == 3
		}
		return one && three
	}
	if got := Shrink(in, fails); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("shrunk to %v, want [1 3]", got)
	}
	if !reflect.DeepEqual(in, []int{5, 1, 8, 2, 9, 3}) {
		t.Fatalf("input modified: %v", in)
	}
}
