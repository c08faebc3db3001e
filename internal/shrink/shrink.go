// Package shrink minimizes the failing inputs of property tests to
// minimal repros.
package shrink

// Shrink greedily minimizes a failing input: any single element whose
// removal keeps the input failing is dropped, until no removal does.
// fails must be deterministic. A caller with a further rule — a field
// to carry into every candidate, a floor on the length — states it in
// fails.
func Shrink[T any](xs []T, fails func([]T) bool) []T {
	for {
		shrunk := false
		for i := range xs {
			cand := make([]T, 0, len(xs)-1)
			cand = append(cand, xs[:i]...)
			cand = append(cand, xs[i+1:]...)
			if fails(cand) {
				xs, shrunk = cand, true
				break
			}
		}
		if !shrunk {
			return xs
		}
	}
}
