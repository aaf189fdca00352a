package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"boosting/internal/core"
	"boosting/internal/dynsched"
	"boosting/internal/experiments"
	"boosting/internal/machine"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/sim"
	"boosting/internal/workloads"
)

// paper_eval: one op regenerates every paper row for one of the seven
// programs with a fresh experiments.Suite at parallelism 1. A pass runs
// each program once, in an order drawn from the seed; the timed run is a
// whole number of passes, so every run measures the same mix.

// paperWarmProgram is the program set-up regenerates: the cheapest one,
// so that set-up stays short.
const paperWarmProgram = "grep"

// paperRow is everything one op regenerates for one program.
type paperRow struct {
	T1      experiments.Table1Row
	F8      experiments.Figure8Row
	T2      experiments.Table2Row
	F9      experiments.Figure9Row
	Growth  float64
	MemHier []experiments.MemHierRow
}

// paperOp is one op: Table 1, Figure 8, Table 2, Figure 9, the §2.3
// costs and the memory-hierarchy ablation for program w.
func paperOp(ctx context.Context, w *workloads.Workload) (*experiments.Suite, paperRow, error) {
	s := experiments.NewSuite()
	s.Workloads = []*workloads.Workload{w}
	s.Runner.Parallelism = 1
	var row paperRow
	t1, err := s.Table1(ctx)
	if err != nil {
		return nil, row, err
	}
	f8, _, _, err := s.Figure8(ctx)
	if err != nil {
		return nil, row, err
	}
	t2, _, err := s.Table2(ctx)
	if err != nil {
		return nil, row, err
	}
	f9, _, _, err := s.Figure9(ctx)
	if err != nil {
		return nil, row, err
	}
	costs, err := s.ExceptionCostsReport(ctx)
	if err != nil {
		return nil, row, err
	}
	mh, err := s.MemHierAblation(ctx)
	if err != nil {
		return nil, row, err
	}
	return s, paperRow{T1: t1[0], F8: f8[0], T2: t2[0], F9: f9[0], Growth: costs.Growth[w.Name], MemHier: mh}, nil
}

func runPaperEval(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	progs := workloads.All()
	warm, err := workloads.ByName(paperWarmProgram)
	if err != nil {
		return nil, err
	}

	// Set-up: construct a Suite and regenerate the warm-up program's rows.
	// The first Suite stays referenced until the end of the run, so
	// heap_live_mib is the heap one Suite holds plus whatever the run
	// leaked.
	var warmSuite *experiments.Suite
	setup := newSetupTimer(cfg.seconds, func() (time.Duration, error) {
		t0 := time.Now()
		s, _, err := paperOp(ctx, warm)
		if warmSuite == nil {
			warmSuite = s
		}
		return time.Since(t0), err
	})
	if err := setup.run(); err != nil {
		return nil, err
	}

	out := &outcome{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rows := map[string]paperRow{}
	lat := map[string][]float64{}
	runtime.GC() // set-up's garbage is not the timed run's
	m := startMeter()
	for pass := 0; pass < 2 || m.elapsed() < cfg.seconds; pass++ {
		order := rand.New(rand.NewSource(cfg.seed*1000 + int64(pass))).Perm(len(progs))
		for _, k := range order {
			w := progs[k]
			out.attempted++
			t0 := time.Now()
			_, row, err := paperOp(ctx, w)
			d := time.Since(t0)
			if err != nil {
				out.failed++
				fmt.Fprintf(cfg.log, "paper_eval: %s: %v\n", w.Name, err)
				continue
			}
			lat[w.Name] = append(lat[w.Name], ms(d))
			if err := setup.due(m); err != nil {
				return nil, err
			}
			m.pause(func() {
				if prev, ok := rows[w.Name]; ok && !reflect.DeepEqual(prev, row) && out.checkErr == nil {
					out.checkErr = fmt.Errorf("%s: rows differ between passes:\n%+v\n%+v", w.Name, prev, row)
				}
				rows[w.Name] = row
				if tr != nil {
					err := tr.op(out.attempted, d, func() error { _, err := replayProgram(w, tr, row); return err })
					if err != nil && out.checkErr == nil {
						out.checkErr = err
					}
					runtime.GC() // the replay's garbage is not the next op's
				}
			})
		}
	}
	m.stop()
	if err := setup.finish(); err != nil {
		return nil, err
	}
	if len(rows) != len(progs) {
		return nil, fmt.Errorf("%d of %d programs regenerated without error", len(rows), len(progs))
	}
	if tr != nil {
		lm, err := tr.layerMetrics(true)
		if err != nil && out.checkErr == nil {
			out.checkErr = err
		}
		out.metrics = lm
		return out, tr.write(traceDir, fmt.Sprintf("paper_eval-seed%d.jsonl", cfg.seed))
	}

	// Verify every program's rows against a layer-by-layer replay and
	// recompute speedup_gm from the replay's cycle counts.
	var scalar, mb3 []int64
	var gm []float64
	for _, w := range progs {
		cyc, err := replayProgram(w, nil, rows[w.Name])
		if err != nil && out.checkErr == nil {
			out.checkErr = err
		}
		scalar = append(scalar, cyc.scalar)
		mb3 = append(mb3, cyc.minBoost3)
		gm = append(gm, rows[w.Name].F9.MinBoost3)
	}
	speedupGM := experiments.GeoMean(gm)
	if out.checkErr == nil {
		out.checkErr = checkSpeedupGM(speedupGM, scalar, mb3)
	}
	heap := heapLiveMiB()
	runtime.KeepAlive(warmSuite)
	// Every time metric is taken over the programs' median op latencies:
	// a program has only a few ops per run, and its median, unlike its
	// fastest or slowest op, does not move with a short change of the
	// host's speed. ops_per_s is the rate of a pass made of each
	// program's median op; nothing but paused bookkeeping runs between
	// ops.
	var medians []float64
	passMS := 0.0
	for _, w := range progs {
		med := percentile(lat[w.Name], 0.5)
		medians = append(medians, med)
		passMS += med
	}
	opsPerS := float64(len(progs)) / (passMS / 1000)
	out.metrics = endToEnd(setup.times, medians, out.attempted-out.failed, opsPerS, m, heap, speedupGM)
	return out, nil
}

// traceDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/trace"

// replayer runs one program's evaluation layer by layer through the
// public function of each module, in the order a paper_eval op makes the
// same calls, and checks every run it makes.
type replayer struct {
	name string // program name, for error messages
	tr   *tracer
}

// builtPair is a register-allocated (or infinite-register) test program
// with predictions transferred from the training input, and its
// reference run.
type builtPair struct {
	test *prog.Program
	ref  *sim.Result
}

func (r *replayer) build(w *workloads.Workload, alloc bool) (*builtPair, error) {
	var train, test *prog.Program
	r.tr.layer("workloads.build", func() error { train, test = w.BuildTrain(), w.BuildTest(); return nil })
	if alloc {
		for _, p := range []*prog.Program{train, test} {
			if err := r.tr.layer("regalloc", func() error { _, err := regalloc.Allocate(p); return err }); err != nil {
				return nil, err
			}
		}
	}
	if err := r.tr.layer("profile", func() error {
		if err := profile.Annotate(train); err != nil {
			return err
		}
		return profile.Transfer(train, test)
	}); err != nil {
		return nil, err
	}
	bp := &builtPair{test: test}
	err := r.tr.layer("sim.ref", func() error {
		var err error
		bp.ref, err = sim.Run(test, sim.RefConfig{})
		return err
	})
	if err != nil {
		return nil, err
	}
	r.tr.count("sim.ref.steps", float64(bp.ref.Insts))
	return bp, nil
}

// scheduleProg clones the pair's program and schedules it for the model.
func (r *replayer) scheduleProg(bp *builtPair, model *machine.Model, opts core.Options) (*machine.SchedProgram, error) {
	var test *prog.Program
	r.tr.layer("prog.clone", func() error { test = prog.Clone(bp.test); return nil })
	var sp *machine.SchedProgram
	var st *core.Stats
	if err := r.tr.layer("core.schedule", func() error {
		var err error
		sp, st, err = core.ScheduleWithStats(test, model, opts)
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s on %s: %w", r.name, model.Name, err)
	}
	r.tr.count("core.insts", float64(sp.NumInsts()))
	r.tr.count("core.attempted", float64(st.MotionsAttempted))
	r.tr.count("core.placed", float64(st.MotionsPlaced))
	return sp, nil
}

// schedule schedules the pair's program and predecodes it for the fast
// core.
func (r *replayer) schedule(bp *builtPair, model *machine.Model, opts core.Options) (*sim.Predecoded, error) {
	sp, err := r.scheduleProg(bp, model, opts)
	if err != nil {
		return nil, err
	}
	var pd *sim.Predecoded
	err = r.tr.layer("sim.predecode", func() error {
		var err error
		pd, err = sim.Predecode(sp)
		return err
	})
	return pd, err
}

// exec runs a predecoded schedule with perfect memory and checks it.
func (r *replayer) exec(layer string, bp *builtPair, pd *sim.Predecoded, model *machine.Model, opts core.Options) (*sim.ExecResult, error) {
	var res *sim.ExecResult
	if err := r.tr.layer(layer, func() error {
		var err error
		res, err = pd.Exec(sim.ExecConfig{})
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s on %s: %w", r.name, model.Name, err)
	}
	if err := checkStaticRun(fmt.Sprintf("%s on %s (%+v)", r.name, model.Name, opts), model, res, bp.ref); err != nil {
		return nil, err
	}
	return res, nil
}

// static schedules and runs one static machine with perfect memory.
func (r *replayer) static(bp *builtPair, model *machine.Model, opts core.Options) (int64, error) {
	pd, err := r.schedule(bp, model, opts)
	if err != nil {
		return 0, err
	}
	res, err := r.exec("sim.exec", bp, pd, model, opts)
	if err != nil {
		return 0, err
	}
	r.tr.count("sim.exec.cycles", float64(res.Cycles))
	r.tr.count("sim.exec.boosted", float64(res.BoostedExec))
	r.tr.count("sim.exec.squashed", float64(res.Squashed))
	return res.Cycles, nil
}

// dynamic runs the dynamically scheduled machine and checks it.
func (r *replayer) dynamic(bp *builtPair, renaming bool) (int64, error) {
	var test *prog.Program
	r.tr.layer("prog.clone", func() error { test = prog.Clone(bp.test); return nil })
	cfg := dynsched.Default()
	cfg.Renaming = renaming
	var res *dynsched.Result
	var a0 uint64
	if r.tr != nil {
		a0 = allocBytes()
	}
	if err := r.tr.layer("dynsched", func() error {
		var err error
		res, err = dynsched.Simulate(test, cfg)
		return err
	}); err != nil {
		return 0, err
	}
	if r.tr != nil {
		r.tr.count("dynsched.alloc_bytes", float64(allocBytes()-a0))
	}
	r.tr.count("dynsched.calls", 1)
	r.tr.count("dynsched.cycles", float64(res.Cycles))
	what := fmt.Sprintf("%s on the dynamic machine (renaming=%v)", r.name, renaming)
	if err := sameRun(what, res.Out, res.MemHash, bp.ref); err != nil {
		return 0, err
	}
	if res.Cycles <= 0 || res.Insts > res.Cycles*int64(cfg.FetchWidth) {
		return 0, fmt.Errorf("%s: IPC %d/%d exceeds the fetch width %d", what, res.Insts, res.Cycles, cfg.FetchWidth)
	}
	return res.Cycles, nil
}

// ablationJob runs one (model, options) schedule of the memory-hierarchy
// ablation under every prefetcher as lockstep lanes, plus a perfect-memory
// run of the same schedule as the reference the lanes are checked against.
func (r *replayer) ablationJob(bp *builtPair, model *machine.Model, opts core.Options) ([]*sim.ExecResult, error) {
	pd, err := r.schedule(bp, model, opts)
	if err != nil {
		return nil, err
	}
	cfgs := make([]sim.ExecConfig, len(prefetchers))
	for i, p := range prefetchers {
		mc := experiments.AblationMemConfig(p)
		cfgs[i] = sim.ExecConfig{Mem: &mc}
	}
	var lanes []*sim.ExecResult
	var errs []error
	r.tr.layer("sim.exec_batch", func() error { lanes, errs = pd.ExecBatch(cfgs); return nil })
	// The op does not run the schedule with perfect memory; the benchmark
	// runs it untraced, as the reference the lanes are checked against.
	t0 := time.Now()
	perfect, err := (&replayer{name: r.name}).exec("sim.exec", bp, pd, model, opts)
	if err != nil {
		return nil, err
	}
	r.tr.count("batch.perfect_ns", float64(len(cfgs))*float64(time.Since(t0)))
	for i, lane := range lanes {
		what := fmt.Sprintf("%s on %s (%+v) under the %s-prefetch hierarchy", r.name, model.Name, opts, prefetchers[i])
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", what, errs[i])
		}
		if err := checkStaticRun(what, model, lane, bp.ref); err != nil {
			return nil, err
		}
		if err := checkHierarchy(what, perfect, lane); err != nil {
			return nil, err
		}
		r.tr.count("batch.lane_cycles", float64(lane.Cycles))
		r.tr.count("mem.l1_misses", float64(lane.Mem.L1Misses))
		r.tr.count("mem.accesses", float64(lane.Mem.Accesses))
		r.tr.count("mem.pref_issued", float64(lane.Mem.PrefIssued))
		r.tr.count("mem.pref_useful", float64(lane.Mem.PrefUseful))
	}
	return lanes, nil
}

// prefetchers is the ablation's prefetcher axis, in the order
// experiments.MemHierAblation reports it.
var prefetchers = []string{"none", "stride", "stream"}

// rowCheck is one reported figure and the value the verified runs give.
type rowCheck struct {
	name      string
	got, want float64
}

// paperCycles is what the checks of speedup_gm need from a replay.
type paperCycles struct{ scalar, minBoost3 int64 }

// replayProgram replays one paper_eval op for program w and checks the
// op's rows against the replay's own cycle counts. With a nil tracer it
// runs the same calls untimed.
func replayProgram(w *workloads.Workload, tr *tracer, row paperRow) (paperCycles, error) {
	r := &replayer{name: w.Name, tr: tr}
	fail := func(err error) (paperCycles, error) { return paperCycles{}, err }
	alloc, err := r.build(w, true)
	if err != nil {
		return fail(err)
	}
	inf, err := r.build(w, false)
	if err != nil {
		return fail(err)
	}
	local := core.Options{LocalOnly: true}
	global := core.Options{}
	cyc := map[string]int64{}
	for _, c := range []struct {
		key   string
		bp    *builtPair
		model *machine.Model
		opts  core.Options
	}{
		{"scalar", alloc, machine.Scalar(), local},
		{"bb", alloc, machine.NoBoost(), local},
		{"NoBoost", alloc, machine.NoBoost(), global},
		{"inf", inf, machine.NoBoost(), global},
		{"Squashing", alloc, machine.Squashing(), global},
		{"Boost1", alloc, machine.Boost1(), global},
		{"MinBoost3", alloc, machine.MinBoost3(), global},
		{"Boost7", alloc, machine.Boost7(), global},
		{"mb3inf", inf, machine.MinBoost3(), global},
	} {
		if cyc[c.key], err = r.static(c.bp, c.model, c.opts); err != nil {
			return fail(err)
		}
	}
	var acc float64
	if err := tr.layer("profile", func() error { acc, err = profile.Accuracy(alloc.test); return err }); err != nil {
		return fail(err)
	}
	if cyc["dyn"], err = r.dynamic(alloc, false); err != nil {
		return fail(err)
	}
	if cyc["dynren"], err = r.dynamic(alloc, true); err != nil {
		return fail(err)
	}
	// §2.3: object growth schedules once more, without running.
	sp, err := r.scheduleProg(alloc, machine.MinBoost3(), global)
	if err != nil {
		return fail(err)
	}
	growth := sp.ObjectGrowth()

	// The ablation: the scalar baseline first, then each boost level with
	// boosted loads allowed and forbidden.
	scalarLanes, err := r.ablationJob(alloc, machine.Scalar(), local)
	if err != nil {
		return fail(err)
	}
	ablation := map[string][]*sim.ExecResult{}
	for _, m := range []*machine.Model{machine.Boost1(), machine.MinBoost3(), machine.Boost7()} {
		for _, boostLoads := range []bool{true, false} {
			lanes, err := r.ablationJob(alloc, m, core.Options{NoBoostedLoads: !boostLoads})
			if err != nil {
				return fail(err)
			}
			ablation[fmt.Sprintf("%s/%v", m.Name, boostLoads)] = lanes
		}
	}

	// The op's rows must be exactly what these verified runs give.
	s := cyc["scalar"]
	ratio := func(a, b int64) float64 { return float64(a) / float64(b) }
	checks := []rowCheck{
		{"Table 1 cycles", float64(row.T1.Cycles), float64(s)},
		{"Table 1 IPC", row.T1.IPC, ratio(alloc.ref.Insts, s)},
		{"Table 1 accuracy", row.T1.Accuracy, acc},
		{"Figure 8 basic block", row.F8.BasicBlock, ratio(s, cyc["bb"])},
		{"Figure 8 global", row.F8.Global, ratio(s, cyc["NoBoost"])},
		{"Figure 8 global (inf)", row.F8.GlobalInf, ratio(s, cyc["inf"])},
		{"Figure 9 MinBoost3", row.F9.MinBoost3, ratio(s, cyc["MinBoost3"])},
		{"Figure 9 MinBoost3 (inf)", row.F9.MinBoost3Inf, ratio(s, cyc["mb3inf"])},
		{"Figure 9 dynamic", row.F9.Dynamic, ratio(s, cyc["dyn"])},
		{"Figure 9 dynamic (renaming)", row.F9.DynamicRenamed, ratio(s, cyc["dynren"])},
		{"§2.3 object growth", row.Growth, growth},
	}
	for _, m := range experiments.Table2Models {
		checks = append(checks, rowCheck{"Table 2 " + m, row.T2.Improvement[m], ratio(cyc["NoBoost"], cyc[m]) - 1})
	}
	if len(row.MemHier) != len(ablation)*len(prefetchers) {
		return fail(fmt.Errorf("%s: %d ablation rows, want %d", w.Name, len(row.MemHier), len(ablation)*len(prefetchers)))
	}
	for _, mr := range row.MemHier {
		lanes := ablation[fmt.Sprintf("%s/%v", mr.Model, mr.BoostLoads)]
		i := prefetchIndex(mr.Prefetch)
		if lanes == nil || i < 0 {
			return fail(fmt.Errorf("%s: unexpected ablation row %+v", w.Name, mr))
		}
		checks = append(checks, rowCheck{fmt.Sprintf("ablation %s/%v/%s speedup", mr.Model, mr.BoostLoads, mr.Prefetch),
			mr.Speedup, ratio(scalarLanes[i].Cycles, lanes[i].Cycles)})
	}
	if row.T1.IPC > 1 {
		return fail(fmt.Errorf("%s: Table 1 IPC %.3f exceeds the R2000's issue width 1", w.Name, row.T1.IPC))
	}
	for _, c := range checks {
		if !near(c.got, c.want) {
			return fail(fmt.Errorf("%s: %s is %.15g, the verified runs give %.15g", w.Name, c.name, c.got, c.want))
		}
	}
	return paperCycles{scalar: s, minBoost3: cyc["MinBoost3"]}, nil
}

func prefetchIndex(p string) int {
	for i, q := range prefetchers {
		if q == p {
			return i
		}
	}
	return -1
}
