package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// digestsPath, relative to the repository root, pins the sha256 of
// each trace cell's Chrome JSON.
const digestsPath = "testdata/trace_digests.json"

// loadDigests reads the pinned trace digests (cell name -> sha256 of
// its Chrome JSON).
func loadDigests(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace digests: %w", err)
	}
	var d map[string]string
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("trace digests %s: %w", path, err)
	}
	return d, nil
}

// checkSets checks every cell run of every set and returns how many
// cell runs were attempted and one message per failed cell run, naming
// the cell. A cell run fails if it returned an error, did not finish,
// clamped a schedule, or disagrees with its pinned Chrome digest
// (trace), with its first run's simulated result, or with the paper's
// claim that buffered releasing takes no more hard faults than the
// original program (paging, indirect). A cell whose process failed
// has an error.
func checkSets(workload string, sets []setResult, digests map[string]string) (attempted int, failures []string) {
	firstPrint := map[string]string{}
	for i, s := range sets {
		attempted += len(s.Cells)
		byName := map[string]cellResult{}
		for _, c := range s.Cells {
			byName[c.Name] = c
		}
		for _, c := range s.Cells {
			var why []string
			switch {
			case c.Err != "":
				why = append(why, c.Err)
			default:
				if !c.Done {
					why = append(why, "did not finish")
				}
				if n := c.Counters["sim.clamps"]; n != 0 {
					why = append(why, fmt.Sprintf("%d clamped schedules", n))
				}
				if workload == "trace" && c.ChromeSHA != digests[c.Name] {
					why = append(why, fmt.Sprintf("Chrome sha256 %s, pinned %s", c.ChromeSHA, digests[c.Name]))
				}
				if fp, ok := firstPrint[c.Name]; !ok {
					firstPrint[c.Name] = c.Fingerprint
				} else if fp != c.Fingerprint {
					why = append(why, fmt.Sprintf("simulated result %s differs from the first run's %s", c.Fingerprint, fp))
				}
				if bench, ok := strings.CutSuffix(c.Name, "/B"); ok && workload != "trace" {
					if o, ok := byName[bench+"/O"]; ok && o.Err == "" && c.Counters["vm.hard_faults"] > o.Counters["vm.hard_faults"] {
						why = append(why, fmt.Sprintf("B took %d hard faults, O only %d",
							c.Counters["vm.hard_faults"], o.Counters["vm.hard_faults"]))
					}
				}
			}
			if len(why) > 0 {
				failures = append(failures, fmt.Sprintf("set %d: %s: %s", i, c.Name, strings.Join(why, "; ")))
			}
		}
	}
	return attempted, failures
}
