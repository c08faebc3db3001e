package main

import (
	"strings"
	"testing"
)

// One wrong expected digest makes exactly that cell a failed operation
// in every set, named in the message; the run itself goes on.
func TestWrongDigestIsAFailedCell(t *testing.T) {
	digests, err := loadDigests("../testdata/trace_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cells("trace", 0)
	if err != nil {
		t.Fatal(err)
	}
	var set setResult
	for _, c := range cs {
		if c.name == "matvec/O" || c.name == "buk/R" {
			set.Cells = append(set.Cells, runCell(c, false))
		}
	}
	sets := []setResult{set, set}
	if n, failures := checkSets("trace", sets, digests); n != 4 || len(failures) != 0 {
		t.Fatalf("pinned digests: %d attempted, failures %v; want 4 and none", n, failures)
	}

	wrong := map[string]string{}
	for k, v := range digests {
		wrong[k] = v
	}
	wrong["buk/R"] = strings.Repeat("0", 64)
	n, failures := checkSets("trace", sets, wrong)
	if n != 4 || len(failures) != 2 {
		t.Fatalf("one wrong digest: %d attempted, failures %v; want 4 and 2", n, failures)
	}
	for _, f := range failures {
		if !strings.Contains(f, "buk/R") || !strings.Contains(f, "Chrome sha256") {
			t.Errorf("failure %q does not name buk/R's digest", f)
		}
	}
}

func TestCheckSetsFailures(t *testing.T) {
	ok := func(name string, hard int64, fp string) cellResult {
		return cellResult{Name: name, Done: true, Fingerprint: fp, Counters: map[string]int64{"vm.hard_faults": hard}}
	}
	good := setResult{Cells: []cellResult{ok("buk/O", 10, "a"), ok("buk/B", 5, "b")}}
	for _, tc := range []struct {
		name string
		set  setResult
		want string
	}{
		{"error", setResult{Cells: []cellResult{ok("buk/O", 10, "a"), {Name: "buk/B", Err: "audit buk: boom"}}}, "buk/B: audit buk: boom"},
		{"dead process", setResult{Cells: []cellResult{ok("buk/O", 10, "a"), {Name: "buk/B", Err: "child process: signal: killed"}}}, "buk/B: child process: signal: killed"},
		{"unfinished", setResult{Cells: []cellResult{ok("buk/O", 10, "a"), {Name: "buk/B", Fingerprint: "b", Counters: map[string]int64{}}}}, "buk/B: did not finish"},
		{"clamps", setResult{Cells: []cellResult{ok("buk/O", 10, "a"), {Name: "buk/B", Done: true, Fingerprint: "b", Counters: map[string]int64{"sim.clamps": 2}}}}, "buk/B: 2 clamped schedules"},
		{"nondeterministic", setResult{Cells: []cellResult{ok("buk/O", 10, "x"), ok("buk/B", 5, "b")}}, "buk/O: simulated result x differs"},
		{"B worse than O", setResult{Cells: []cellResult{ok("buk/O", 10, "a"), ok("buk/B", 11, "b")}}, "buk/B: B took 11 hard faults, O only 10"},
	} {
		n, failures := checkSets("indirect", []setResult{good, tc.set}, nil)
		if n != 4 || len(failures) != 1 || !strings.Contains(failures[0], tc.want) {
			t.Errorf("%s: %d attempted, failures %q; want 4 and one containing %q", tc.name, n, failures, tc.want)
		}
	}
}
