package main

import (
	"testing"

	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/sim"
)

// Every output check must accept a correct result and reject the same
// result with one field corrupted.

func goodReply() simReply {
	return simReply{Cycles: 100, ScalarCycles: 150, Speedup: 1.5, Insts: 180, IPC: 1.8,
		BoostedExec: 10, Squashed: 2, OutLen: 3}
}

func TestCheckSimReply(t *testing.T) {
	if err := checkSimReply(200, "miss", "miss", goodReply(), 3); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	cases := []struct {
		name    string
		status  int
		cache   string
		corrupt func(*simReply)
	}{
		{"wrong out_len", 200, "miss", func(r *simReply) { r.OutLen = 4 }},
		{"IPC above the issue width", 200, "miss", func(r *simReply) { r.Insts, r.IPC = 250, 2.5 }},
		{"cold request reported as a cache hit", 200, "hit", func(*simReply) {}},
		{"speedup × cycles != scalar_cycles", 200, "miss", func(r *simReply) { r.Speedup = 1.4 }},
		{"squashed > boosted", 200, "miss", func(r *simReply) { r.Squashed = 11 }},
		{"non-200 status", 422, "miss", func(*simReply) {}},
	}
	for _, c := range cases {
		r := goodReply()
		c.corrupt(&r)
		if err := checkSimReply(c.status, c.cache, "miss", r, 3); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestCheckHotReply(t *testing.T) {
	want := []byte(`{"cycles":100}` + "\n")
	if err := checkHotReply(200, "hit", []byte(`{"cycles":100}`+"\n"), want); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	if err := checkHotReply(200, "hit", []byte(`{"cycles":101}`+"\n"), want); err == nil {
		t.Error("hot reply whose bytes differ: accepted")
	}
	if err := checkHotReply(200, "miss", want, want); err == nil {
		t.Error("hot request that missed the cache: accepted")
	}
}

func refRun() *sim.Result { return &sim.Result{Out: []uint32{1, 2, 3}, MemHash: 42} }

func goodExec() *sim.ExecResult {
	return &sim.ExecResult{Out: []uint32{1, 2, 3}, MemHash: 42, Cycles: 100, Insts: 180, BoostedExec: 10, Squashed: 2}
}

func TestCheckStaticRun(t *testing.T) {
	if err := checkStaticRun("run", machine.MinBoost3(), goodExec(), refRun()); err != nil {
		t.Fatalf("correct run rejected: %v", err)
	}
	cases := []struct {
		name    string
		model   *machine.Model
		corrupt func(*sim.ExecResult)
	}{
		{"IPC above the issue width", machine.MinBoost3(), func(r *sim.ExecResult) { r.Insts = 201 }},
		{"IPC above the R2000's width", machine.Scalar(), func(r *sim.ExecResult) { r.BoostedExec, r.Squashed = 0, 0 }},
		{"output differs", machine.MinBoost3(), func(r *sim.ExecResult) { r.Out = []uint32{1, 2, 4} }},
		{"output shorter", machine.MinBoost3(), func(r *sim.ExecResult) { r.Out = r.Out[:2] }},
		{"final memory differs", machine.MinBoost3(), func(r *sim.ExecResult) { r.MemHash = 43 }},
		{"squashed > boosted", machine.MinBoost3(), func(r *sim.ExecResult) { r.Squashed = 11 }},
		{"NoBoost boosts", machine.NoBoost(), func(r *sim.ExecResult) { r.Squashed = 0 }},
		{"NoBoost squashes", machine.NoBoost(), func(r *sim.ExecResult) { r.BoostedExec = 2 }},
	}
	for _, c := range cases {
		r := goodExec()
		c.corrupt(r)
		if err := checkStaticRun("run", c.model, r, refRun()); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestCheckHierarchy(t *testing.T) {
	perfect := goodExec()
	lane := func() *sim.ExecResult {
		r := goodExec()
		r.Cycles = 120
		r.Mem = &memhier.Stats{PrefIssued: 5, PrefUseful: 4}
		return r
	}
	if err := checkHierarchy("lane", perfect, lane()); err != nil {
		t.Fatalf("correct lane rejected: %v", err)
	}
	faster := lane()
	faster.Cycles = 99
	if err := checkHierarchy("lane", perfect, faster); err == nil {
		t.Error("hierarchy run faster than perfect memory: accepted")
	}
	overUseful := lane()
	overUseful.Mem.PrefUseful = 6
	if err := checkHierarchy("lane", perfect, overUseful); err == nil {
		t.Error("more useful prefetches than issued: accepted")
	}
}

func TestCheckSpeedupGM(t *testing.T) {
	scalar, boosted := []int64{150, 200}, []int64{100, 200}
	if err := checkSpeedupGM(1.224744871391589, scalar, boosted); err != nil {
		t.Fatalf("correct geometric mean rejected: %v", err)
	}
	if err := checkSpeedupGM(1.25, scalar, boosted); err == nil {
		t.Error("wrong geometric mean: accepted")
	}
}

func TestScheduledFault(t *testing.T) {
	fault := []byte(`{"schema_version":2,"error":"simulation: store-fault at addr 0xffffff7c (proc main block 26 inst 354)"}`)
	if !scheduledFault(422, fault) {
		t.Fatal("a faulting scheduled program is not recognised")
	}
	cases := []struct {
		name   string
		status int
		body   string
	}{
		{"a 200 reply", 200, `{"cycles":100}`},
		{"a fault with another status", 500, string(fault)},
		{"output that differs from the reference", 500, `{"error":"out[0] = 1, reference has 2"}`},
		{"a faulting reference run", 422, `{"error":"reference run: load-fault at addr 0x0"}`},
		{"a faulting scalar baseline", 422, `{"error":"scalar baseline: align-fault at addr 0x3"}`},
		{"a simulation error that is not a fault", 422, `{"error":"simulation: cycle limit exceeded"}`},
		{"a body that is not JSON", 422, `simulation: store-fault`},
	}
	for _, c := range cases {
		if scheduledFault(c.status, []byte(c.body)) {
			t.Errorf("%s: taken for a scheduled-program fault", c.name)
		}
	}
}
