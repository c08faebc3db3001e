package sim

import (
	"fmt"
	"testing"
)

// refTimeString is the fmt spelling Time.String had before the integer
// formatter; the property tests hold Append to it byte for byte.
func refTimeString(t Time) string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// checkTime compares String, Append onto a non-empty prefix, and the
// microsecond AppendIn (Chrome's "ts") with the fmt references.
func checkTime(t *testing.T, v Time) {
	t.Helper()
	want := refTimeString(v)
	if got := v.String(); got != want {
		t.Fatalf("Time(%d).String() = %q, want %q", int64(v), got, want)
	}
	if got := string(v.Append([]byte("x"))); got != "x"+want {
		t.Fatalf("Time(%d).Append(\"x\") = %q, want %q", int64(v), got, "x"+want)
	}
	wantUS := fmt.Sprintf("%.3f", float64(v)/1e3)
	if got := string(v.AppendIn(nil, Microsecond)); got != wantUS {
		t.Fatalf("Time(%d).AppendIn(us) = %q, want %q", int64(v), got, wantUS)
	}
}

func TestTimeAppendRandomInEveryUnit(t *testing.T) {
	r := NewRand(14)
	ranges := [][2]Time{
		{-Second, 0},
		{0, Microsecond},
		{Microsecond, Millisecond},
		{Millisecond, Second},
		{Second, 1000 * Second},
		{1000 * Second, 1 << 50},
		{1 << 50, 1 << 62},
	}
	for _, rg := range ranges {
		for i := 0; i < 20000; i++ {
			checkTime(t, rg[0]+Time(r.Uint64()%uint64(rg[1]-rg[0])))
		}
	}
}

// TestTimeAppendTies walks every exact rounding tie of the ms range and
// of the first 100 s, plus one ns either side, and a random sample of
// the s-range ties up to 2^50: at a tie the double's rounding decides,
// which the integer path must reproduce. Only String is compared here
// (Append is its one formatter; AppendIn(us) has no ties).
func TestTimeAppendTies(t *testing.T) {
	check := func(v Time) {
		for _, w := range []Time{v - 1, v, v + 1} {
			if got, want := w.String(), refTimeString(w); got != want {
				t.Fatalf("Time(%d).String() = %q, want %q", int64(w), got, want)
			}
		}
	}
	for v := Millisecond + 500; v < Second; v += 1000 {
		check(v)
	}
	const half = Millisecond / 2
	for v := Second + half; v < 100*Second; v += Millisecond {
		check(v)
	}
	r := NewRand(50)
	for i := 0; i < 100000; i++ {
		if v := Time(r.Uint64()%uint64((1<<50)/Millisecond))*Millisecond + half; v > Second {
			check(v)
		}
	}
}

func TestTimeAppendBoundaries(t *testing.T) {
	for _, v := range []Time{
		0, 1, 999, 1000, 1001, 999_499, 999_500, 999_999, 1_000_000,
		999_999_499, 999_999_500, 999_999_999, 1_000_000_000,
		Second + 999_999, Second + 999_500,
	} {
		checkTime(t, v)
	}
	for _, base := range []Time{1 << 50, 1 << 53} {
		for d := Time(-2000); d <= 2000; d++ {
			checkTime(t, base+d)
		}
	}
}

func TestTimeAppendDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = (1234567891 * Nanosecond).Append(buf[:0])
		buf = (5 * Millisecond).AppendIn(buf, Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("Append allocated %.1f times per call", allocs)
	}
}
