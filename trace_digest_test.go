package memhogs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
)

// traceDigestCells enumerates the pinned trace matrix: every benchmark
// x version on the quick machine, plus the far-tier cells — FFTPDE
// (the benchmark whose releases carry reuse priorities, so its pages
// actually demote and promote) on the same 256-page budget split 3:1
// DRAM:far. 6x4 + 4 = 28 cells.
func traceDigestCells() []struct {
	Key   string
	Bench string
	V     Version
	M     Machine
} {
	versions := []struct {
		Letter string
		V      Version
	}{
		{"O", Original}, {"P", PrefetchOnly}, {"R", Aggressive}, {"B", Buffered},
	}
	plain := TestMachine()
	farMachine := TestMachine()
	farMachine.MemoryMB = 3 // 192 DRAM pages ...
	farMachine.FarMemMB = 1 // ... + 64 far slots = the same 256-page budget
	var cells []struct {
		Key   string
		Bench string
		V     Version
		M     Machine
	}
	for _, bench := range BenchmarkNames() {
		for _, ver := range versions {
			cells = append(cells, struct {
				Key   string
				Bench string
				V     Version
				M     Machine
			}{bench + "/" + ver.Letter, bench, ver.V, plain})
		}
	}
	for _, ver := range versions {
		cells = append(cells, struct {
			Key   string
			Bench string
			V     Version
			M     Machine
		}{"fftpde/" + ver.Letter + "+far", "fftpde", ver.V, farMachine})
	}
	return cells
}

// traceDigests runs every cell of traceDigestCells once per test
// binary and returns the sha256 of each cell's ChromeJSON and Log,
// keyed by cell.
var traceDigests = sync.OnceValues(func() (map[string][2]string, error) {
	got := map[string][2]string{}
	for _, cell := range traceDigestCells() {
		tr, err := Trace(cell.Bench, cell.V, cell.M, 0, -1)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", cell.Key, err)
		}
		chrome := sha256.Sum256(tr.ChromeJSON)
		log := sha256.Sum256([]byte(tr.Log))
		got[cell.Key] = [2]string{hex.EncodeToString(chrome[:]), hex.EncodeToString(log[:])}
	}
	return got, nil
})

// checkTraceDigests compares one column of traceDigests (0 Chrome,
// 1 Log) with the pinned file, or rewrites the file when the env
// variable update is set.
func checkTraceDigests(t *testing.T, col int, file, update string) {
	t.Helper()
	cells := traceDigestCells()
	if len(cells) != 28 {
		t.Fatalf("digest matrix has %d cells, want 28 (6 benchmarks x 4 versions + 4 far cells)", len(cells))
	}
	all, err := traceDigests()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for k, v := range all {
		got[k] = v[col]
	}
	if os.Getenv(update) != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests", len(got))
		return
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cells) {
		t.Fatalf("digest file has %d cells, matrix has %d — regenerate with %s=1", len(want), len(cells), update)
	}
	for _, cell := range cells {
		if got[cell.Key] != want[cell.Key] {
			t.Errorf("%s: trace bytes changed (sha256 %s, want %s)", cell.Key, got[cell.Key], want[cell.Key])
		}
	}
}

// TestTraceDigests pins the flight-recorder trace bytes for every cell
// of traceDigestCells: the sha256 of each `memhog -quick -quiet trace`
// output must match testdata/trace_digests.json. Any divergence means
// a refactor changed simulated behavior, not just speed — including
// the far-tier cells, whose demote/promote traffic is part of the
// pinned byte stream. After an intentional behavior change, regenerate
// with UPDATE_TRACE_DIGESTS=1 go test -run TestTraceDigests .
func TestTraceDigests(t *testing.T) {
	checkTraceDigests(t, 0, "testdata/trace_digests.json", "UPDATE_TRACE_DIGESTS")
}

// TestTraceLogDigests pins the merged text log (`memhog -quick trace
// -log`) of the same cells against testdata/trace_log_digests.json, so
// a change to the Log exporter's bytes (time formatting, padding, the
// names table) fails here even when the Chrome export is unchanged.
// Regenerate with UPDATE_TRACE_LOG_DIGESTS=1 go test -run TestTraceLogDigests .
func TestTraceLogDigests(t *testing.T) {
	checkTraceDigests(t, 1, "testdata/trace_log_digests.json", "UPDATE_TRACE_LOG_DIGESTS")
}
