package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"

	"boosting/internal/machine"
	"boosting/internal/sim"
)

// The checks below hold for any correct build of the program: they are
// properties of the method, not a saved copy of today's output.

// sameRun reports whether a machine's observable output and final memory
// equal the reference interpreter's: boosting must be architecturally
// invisible.
func sameRun(what string, out []uint32, memHash uint64, ref *sim.Result) error {
	if len(out) != len(ref.Out) {
		return fmt.Errorf("%s: %d outputs, reference has %d", what, len(out), len(ref.Out))
	}
	for i := range out {
		if out[i] != ref.Out[i] {
			return fmt.Errorf("%s: out[%d] = %d, reference has %d", what, i, out[i], ref.Out[i])
		}
	}
	if memHash != ref.MemHash {
		return fmt.Errorf("%s: final memory differs from the reference run", what)
	}
	return nil
}

// checkStaticRun checks one run of a statically scheduled machine.
func checkStaticRun(what string, model *machine.Model, res *sim.ExecResult, ref *sim.Result) error {
	if err := sameRun(what, res.Out, res.MemHash, ref); err != nil {
		return err
	}
	if res.Cycles <= 0 || float64(res.Insts)/float64(res.Cycles) > float64(model.IssueWidth) {
		return fmt.Errorf("%s: IPC %d/%d exceeds the issue width %d", what, res.Insts, res.Cycles, model.IssueWidth)
	}
	if res.Squashed > res.BoostedExec {
		return fmt.Errorf("%s: squashed %d > boosted %d", what, res.Squashed, res.BoostedExec)
	}
	if !model.Boost.Enabled() && (res.BoostedExec != 0 || res.Squashed != 0) {
		return fmt.Errorf("%s: %s has no boosting hardware but boosted %d and squashed %d",
			what, model.Name, res.BoostedExec, res.Squashed)
	}
	return nil
}

// checkHierarchy checks a run under a finite memory hierarchy against the
// perfect-memory run of the same schedule.
func checkHierarchy(what string, perfect, lane *sim.ExecResult) error {
	if lane.Cycles < perfect.Cycles {
		return fmt.Errorf("%s: %d cycles under the hierarchy, %d with perfect memory", what, lane.Cycles, perfect.Cycles)
	}
	if lane.Mem == nil {
		return fmt.Errorf("%s: no hierarchy counters", what)
	}
	if lane.Mem.PrefUseful > lane.Mem.PrefIssued {
		return fmt.Errorf("%s: %d useful prefetches of %d issued", what, lane.Mem.PrefUseful, lane.Mem.PrefIssued)
	}
	return nil
}

// checkSpeedupGM recomputes the geometric mean of scalar[i]/boosted[i]
// from the cycle counts and compares it with the reported figure.
func checkSpeedupGM(reported float64, scalar, boosted []int64) error {
	if len(scalar) == 0 || len(scalar) != len(boosted) {
		return fmt.Errorf("speedup_gm: %d scalar and %d boosted cycle counts", len(scalar), len(boosted))
	}
	sum := 0.0
	for i := range scalar {
		sum += math.Log(float64(scalar[i]) / float64(boosted[i]))
	}
	want := math.Exp(sum / float64(len(scalar)))
	if !near(reported, want) {
		return fmt.Errorf("speedup_gm: reported %.15g, cycle counts give %.15g", reported, want)
	}
	return nil
}

// near compares two figures derived from the same integers by different
// float paths.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }

// simReply is the part of a /v1/simulate reply the checks read.
type simReply struct {
	Cycles       int64   `json:"cycles"`
	ScalarCycles int64   `json:"scalar_cycles"`
	Speedup      float64 `json:"speedup"`
	Insts        int64   `json:"insts"`
	IPC          float64 `json:"ipc"`
	BoostedExec  int64   `json:"boosted_exec"`
	Squashed     int64   `json:"squashed"`
	OutLen       int     `json:"out_len"`
}

// issueWidth is the issue width of every machine the service workloads
// ask for.
const issueWidth = 2

// checkSimReply checks a decoded /v1/simulate reply. wantCache is "miss"
// for a request the server has never seen and "hit" for a repeat;
// wantOutLen is the output length of a reference run the benchmark made
// itself.
func checkSimReply(status int, cache, wantCache string, r simReply, wantOutLen int) error {
	if status != 200 {
		return fmt.Errorf("status %d, want 200", status)
	}
	if cache != wantCache {
		return fmt.Errorf("X-Boostd-Cache %q, want %q", cache, wantCache)
	}
	if r.Cycles <= 0 || !near(r.Speedup*float64(r.Cycles), float64(r.ScalarCycles)) {
		return fmt.Errorf("speedup %.17g × cycles %d != scalar_cycles %d", r.Speedup, r.Cycles, r.ScalarCycles)
	}
	if r.IPC > issueWidth || float64(r.Insts)/float64(r.Cycles) > issueWidth {
		return fmt.Errorf("IPC %.3f (%d/%d) exceeds the issue width %d", r.IPC, r.Insts, r.Cycles, issueWidth)
	}
	if r.Squashed > r.BoostedExec {
		return fmt.Errorf("squashed %d > boosted %d", r.Squashed, r.BoostedExec)
	}
	if r.OutLen != wantOutLen {
		return fmt.Errorf("out_len %d, the reference run prints %d", r.OutLen, wantOutLen)
	}
	return nil
}

// checkHotReply checks a replayed request: it must be served from the
// response cache with the exact bytes computed for it at set-up.
func checkHotReply(status int, cache string, body, want []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d, want 200", status)
	}
	if cache != "hit" {
		return fmt.Errorf("X-Boostd-Cache %q, want \"hit\"", cache)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("reply differs from the body computed at set-up (%d vs %d bytes)", len(body), len(want))
	}
	return nil
}

// scheduledFault reports whether a /v1/simulate reply is boostd refusing
// a request because the scheduled program faulted in the simulator
// although its reference run was clean: the global-scheduling miscompile
// README.md describes ("Left-out cold programs").
func scheduledFault(status int, body []byte) bool {
	if status != http.StatusUnprocessableEntity {
		return false
	}
	var e struct {
		Error string `json:"error"`
	}
	return json.Unmarshal(body, &e) == nil && strings.HasPrefix(e.Error, "simulation: ") && strings.Contains(e.Error, "-fault")
}

// maxLeftOut is how many of sent cold requests may be left out as
// scheduled-program faults before a run fails: twelve times the rate of
// about one in 12,000 measured at this commit, plus two.
func maxLeftOut(sent int) int { return 2 + sent/1000 }
