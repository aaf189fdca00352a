package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Root spans (Parent 0) cover the
// traced replay of one op; every other span is a call into one module.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory and sums them per
// layer. A nil *tracer runs every layer call untimed.
type tracer struct {
	t0     time.Time
	spans  []span
	cur    int // root span of the op being replayed
	layers map[string]time.Duration
	counts map[string]float64

	ops      int
	untraced time.Duration // wall time of the same ops run untraced
	traced   time.Duration // wall time of the replays
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), layers: map[string]time.Duration{}, counts: map[string]float64{}}
}

// op replays operation id under a root span. untraced is the wall time of
// the same op run without tracing, which coverage and overhead divide by.
func (tr *tracer) op(id int, untraced time.Duration, f func() error) error {
	start := time.Now()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Op: id, Name: "op", StartNS: int64(start.Sub(tr.t0))})
	root := len(tr.spans) - 1
	tr.cur = root + 1
	err := f()
	end := time.Now()
	tr.spans[root].EndNS = int64(end.Sub(tr.t0))
	tr.ops++
	tr.untraced += untraced
	tr.traced += end.Sub(start)
	return err
}

// layer times f as a child span of the current op.
func (tr *tracer) layer(name string, f func() error) error {
	if tr == nil {
		return f()
	}
	start := time.Now()
	err := f()
	end := time.Now()
	tr.spans = append(tr.spans, span{
		ID: len(tr.spans) + 1, Parent: tr.cur, Op: tr.spans[tr.cur-1].Op, Name: name,
		StartNS: int64(start.Sub(tr.t0)), EndNS: int64(end.Sub(tr.t0)),
	})
	tr.layers[name] += end.Sub(start)
	return err
}

// count adds to a named counter recorded at a layer boundary.
func (tr *tracer) count(name string, v float64) {
	if tr != nil {
		tr.counts[name] += v
	}
}

// write stores the spans as JSON lines under dir.
func (tr *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Coverage bounds: the layer spans must add up to the untraced op wall
// time within 10%, or the split does not describe where the time went.
const coverageMin, coverageMax = 0.9, 1.1

// layerMetrics turns the spans and counters of a traced run into the
// per-layer metrics. With experimentsSelf, experiments.self_ms is the op
// wall time minus every span (paper_eval); the service workloads time the
// service layer directly and leave it 0.
func (tr *tracer) layerMetrics(experimentsSelf bool) (map[string]metric, error) {
	ops := float64(tr.ops)
	perOp := func(d time.Duration) float64 { return ms(d) / ops }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ns := func(name string) float64 { return float64(tr.layers[name]) }
	c := tr.counts
	var covered time.Duration
	for _, t := range tr.layers {
		covered += t
	}
	self := 0.0
	if experimentsSelf {
		self = perOp(tr.untraced - covered)
	}
	coverage := div(float64(covered), float64(tr.untraced))
	out := map[string]metric{
		"service.self_ms":                  {perOp(tr.layers["service"]), "ms"},
		"prog.parse_ms":                    {perOp(tr.layers["prog.parse"]), "ms"},
		"prog.clone_ms":                    {perOp(tr.layers["prog.clone"]), "ms"},
		"regalloc.ms":                      {perOp(tr.layers["regalloc"]), "ms"},
		"sim.ref.ms":                       {perOp(tr.layers["sim.ref"]), "ms"},
		"sim.ref.ns_per_step":              {div(ns("sim.ref"), c["sim.ref.steps"]), "ns"},
		"profile.ms":                       {perOp(tr.layers["profile"]), "ms"},
		"core.schedule.ms":                 {perOp(tr.layers["core.schedule"]), "ms"},
		"core.schedule.us_per_inst":        {div(ns("core.schedule")/1e3, c["core.insts"]), "us"},
		"core.placed_per_attempted":        {div(c["core.placed"], c["core.attempted"]), "ratio"},
		"sim.predecode.ms":                 {perOp(tr.layers["sim.predecode"]), "ms"},
		"sim.exec.ms":                      {perOp(tr.layers["sim.exec"]), "ms"},
		"sim.exec.ns_per_cycle":            {div(ns("sim.exec"), c["sim.exec.cycles"]), "ns"},
		"sim.exec.squashed_per_boosted":    {div(c["sim.exec.squashed"], c["sim.exec.boosted"]), "ratio"},
		"sim.exec_batch.ns_per_lane_cycle": {div(ns("sim.exec_batch"), c["batch.lane_cycles"]), "ns"},
		"memhier.ms":                       {(ns("sim.exec_batch") - c["batch.perfect_ns"]) / 1e6 / ops, "ms"},
		"memhier.l1_miss_rate":             {div(c["mem.l1_misses"], c["mem.accesses"]), "ratio"},
		"memhier.prefetch_accuracy":        {div(c["mem.pref_useful"], c["mem.pref_issued"]), "ratio"},
		"dynsched.ms":                      {perOp(tr.layers["dynsched"]), "ms"},
		"dynsched.ns_per_cycle":            {div(ns("dynsched"), c["dynsched.cycles"]), "ns"},
		"dynsched.alloc_mib":               {div(c["dynsched.alloc_bytes"], c["dynsched.calls"]) / mib, "MiB"},
		"workloads.build_ms":               {perOp(tr.layers["workloads.build"]), "ms"},
		"experiments.self_ms":              {self, "ms"},
		"trace.coverage":                   {coverage, "ratio"},
		"trace.overhead":                   {div(float64(tr.traced), float64(tr.untraced)), "ratio"},
	}
	if coverage < coverageMin || coverage > coverageMax {
		return out, fmt.Errorf("trace.coverage %.3f is outside [%.1f, %.1f]: the layer spans do not add up to the op wall time",
			coverage, coverageMin, coverageMax)
	}
	return out, nil
}
