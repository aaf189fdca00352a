package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"boosting"
	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/service"
	"boosting/internal/sim"
	"boosting/internal/testgen"
	"boosting/internal/workloads"
)

// boostd is an in-process boostd listening on loopback, with the one
// client the closed loop sends through.
type boostd struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan error
}

func startBoostd() (*boostd, error) {
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &boostd{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String() + "/v1/simulate",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		done:   make(chan error, 1),
	}
	go func() { b.done <- b.hs.Serve(ln) }()
	return b, nil
}

// stop shuts the server down and waits for it to exit.
func (b *boostd) stop() {
	b.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.hs.Shutdown(ctx) // the client is idle; a timeout leaves only Serve's goroutine, which done waits for
	<-b.done
	_, _ = b.srv.Close() // no artifact store is configured, so Close has nothing to flush
}

// post sends one /v1/simulate request and reads the whole reply.
func (b *boostd) post(body []byte) (status int, cache string, reply []byte, err error) {
	resp, err := b.client.Post(b.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Boostd-Cache"), reply, err
}

// coldModels are the machines cold_asm requests draw from.
var coldModels = []string{"NoBoost", "Squashing", "Boost1", "MinBoost3", "Boost7"}

// coldInput is one cold_asm request and what the benchmark expects of it.
type coldInput struct {
	progSeed int64 // testgen seed of the program, for messages
	asm      string
	model    *machine.Model
	body     []byte
	outLen   int // output length of the benchmark's own reference run
}

// coldInputs makes cold_asm requests from a stream seed: each is a
// testgen program of a seeded shape with a seeded model. seen holds every
// (program, model) pair made so far, so that no request ever repeats.
type coldInputs struct {
	seed int64
	next int64
	seen map[[32]byte]bool
}

func (g *coldInputs) generate() (coldInput, error) {
	for {
		i := g.next
		g.next++
		progSeed := int64(splitmix(g.seed, i) >> 1)
		pr := testgen.Random(progSeed, testgen.RandomShape(progSeed))
		asm := prog.FormatProgram(pr)
		name := coldModels[splitmix(progSeed, -1)%uint64(len(coldModels))]
		key := sha256.Sum256([]byte(name + "\n" + asm))
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		ref, err := sim.Run(pr, sim.RefConfig{})
		if err != nil {
			return coldInput{}, fmt.Errorf("reference run of generated program %d: %w", progSeed, err)
		}
		model, err := boosting.ModelByName(name)
		if err != nil {
			return coldInput{}, err
		}
		body, err := json.Marshal(service.SimulateRequest{Asm: asm, Model: name})
		if err != nil {
			return coldInput{}, err
		}
		return coldInput{progSeed: progSeed, asm: asm, model: model, body: body, outLen: len(ref.Out)}, nil
	}
}

const (
	// coldWarmRequests is how many cold requests set-up sends before the
	// timed run. Their programs come from a fixed stream, not the seed.
	coldWarmRequests = 150
	coldWarmSeed     = -7
	// heapAtOps is the op count at which the live heap is read, so that
	// heap_live_mib does not depend on how many ops the host completes.
	// The run goes on until at least this many ops are done.
	heapAtOps = 500
	// speedupOps is how many of the first cold replies speedup_gm is taken
	// over, so that it does not depend on how many ops the host completes;
	// 2,000 keeps its seed-to-seed spread near 1%. The run goes on until at
	// least this many ops are done.
	speedupOps = 2000
	// Every coldSampleEvery-th reply, up to coldSamples of them, is sent
	// again to a second, fresh server, which must return the same bytes.
	coldSampleEvery = 32
	coldSamples     = 64
	// coldWindow and hotWindow are the numbers of ops over which ops_per_s
	// is taken before the median: about a second of cold requests, and 12
	// whole rounds of the 42 hot ones (about 40 ms, long enough to hold
	// one or two collections of the hot path's garbage).
	coldWindow = 250
	hotWindow  = 12 * 42
)

// warmColdInputs makes the warm-up requests of cold_asm's set-up: a
// fixed stream, not the seed's. seen is as for coldInputs.
func warmColdInputs(seen map[[32]byte]bool) ([]coldInput, error) {
	g := &coldInputs{seed: coldWarmSeed, seen: seen}
	warm := make([]coldInput, coldWarmRequests)
	for i := range warm {
		var err error
		if warm[i], err = g.generate(); err != nil {
			return nil, err
		}
	}
	return warm, nil
}

func runColdAsm(cfg runConfig) (*outcome, error) {
	// Set-up: start boostd and send the warm-up requests, each of which
	// must pass the reply checks. The first server is the one the run
	// uses, and its warm-up marks the programs the run must not repeat.
	// The requests are made again for every set-up, outside its time, so
	// the timed run does not hold them.
	seen := map[[32]byte]bool{}
	out := &outcome{}
	var b *boostd
	setup := newSetupTimer(cfg.seconds, func() (time.Duration, error) {
		warmSeen := seen
		if b != nil {
			warmSeen = map[[32]byte]bool{}
		}
		warm, err := warmColdInputs(warmSeen)
		if err != nil {
			return 0, err
		}
		runtime.GC() // making the requests is not set-up's garbage
		t0 := time.Now()
		s, err := startBoostd()
		if err != nil {
			return 0, err
		}
		statuses := make([]int, len(warm))
		caches := make([]string, len(warm))
		replies := make([][]byte, len(warm))
		for i, in := range warm {
			if statuses[i], caches[i], replies[i], err = s.post(in.body); err != nil {
				s.stop()
				return 0, err
			}
		}
		d := time.Since(t0)
		for i, in := range warm {
			var r simReply
			if err := json.Unmarshal(replies[i], &r); err != nil && out.checkErr == nil {
				out.checkErr = fmt.Errorf("set-up reply %d: %v: %s", i, err, replies[i])
			}
			if err := checkSimReply(statuses[i], caches[i], "miss", r, in.outLen); err != nil && out.checkErr == nil {
				out.checkErr = fmt.Errorf("set-up request %d (program %d on %s): %w; reply %.300s", i, in.progSeed, in.model.Name, err, replies[i])
			}
		}
		if b == nil {
			b = s
		} else {
			s.stop()
		}
		return d, nil
	})
	if err := setup.run(); err != nil {
		return nil, err
	}
	defer func() { b.stop() }()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	gen := &coldInputs{seed: cfg.seed, seen: seen}
	var queue []coldInput
	var lat []float64
	var heap float64
	var logSpeedup float64
	var nSpeedup int
	var sampled []coldInput
	var sampleBodies [][]byte
	var sent, leftOut int
	runtime.GC() // set-up's garbage is not the timed run's
	m := startMeter()
	for out.attempted < speedupOps || m.elapsed() < cfg.seconds {
		if len(queue) == 0 {
			var err error
			m.pause(func() {
				for len(queue) < 64 && err == nil {
					var in coldInput
					in, err = gen.generate()
					queue = append(queue, in)
				}
				// Collect the garbage making inputs left behind, so that the
				// timed requests do not pay for it.
				runtime.GC()
			})
			if err != nil {
				return nil, err
			}
		}
		in := queue[0]
		queue = queue[1:]
		sent++
		t0 := time.Now()
		status, cache, body, err := b.post(in.body)
		d := time.Since(t0)
		if err == nil && scheduledFault(status, body) {
			// The miscompile README.md describes: which programs it hits
			// depends on the seed, so they are left out of the op counts,
			// and the run fails if they are more than its measured rate.
			leftOut++
			fmt.Fprintf(cfg.log, "cold_asm: left out program %d on %s: %s\n", in.progSeed, in.model.Name, bytes.TrimSpace(body))
			continue
		}
		out.attempted++
		if err != nil {
			out.failed++
			fmt.Fprintf(cfg.log, "cold_asm: %v\n", err)
			continue
		}
		lat = append(lat, ms(d))
		m.mark()
		if err := setup.due(m); err != nil {
			return nil, err
		}
		m.pause(func() {
			var r simReply
			if jerr := json.Unmarshal(body, &r); jerr != nil && out.checkErr == nil {
				out.checkErr = fmt.Errorf("request %d: %v: %s", out.attempted, jerr, body)
			}
			if cerr := checkSimReply(status, cache, "miss", r, in.outLen); cerr != nil && out.checkErr == nil {
				out.checkErr = fmt.Errorf("request %d (program %d on %s): %w; reply %.300s", out.attempted, in.progSeed, in.model.Name, cerr, body)
			}
			if nSpeedup < speedupOps {
				logSpeedup += math.Log(r.Speedup)
				nSpeedup++
			}
			if out.attempted%coldSampleEvery == 0 && len(sampled) < coldSamples {
				sampled = append(sampled, in)
				sampleBodies = append(sampleBodies, body)
			}
			if heap == 0 && out.attempted >= heapAtOps {
				heap = heapLiveMiB()
			}
			if tr != nil {
				if terr := tr.op(out.attempted, d, func() error { return replayCold(b, tr, in, body) }); terr != nil && out.checkErr == nil {
					out.checkErr = terr
				}
				runtime.GC() // the replay's garbage is not the next request's
			}
		})
	}
	m.stop()
	if err := setup.finish(); err != nil {
		return nil, err
	}
	out.note = fmt.Sprintf("left out %d of %d requests whose scheduled program faulted (at most %d allowed)", leftOut, sent, maxLeftOut(sent))
	if leftOut > maxLeftOut(sent) && out.checkErr == nil {
		out.checkErr = fmt.Errorf("%d of %d requests faulted after scheduling; the measured rate allows %d", leftOut, sent, maxLeftOut(sent))
	}
	if tr != nil {
		lm, err := tr.layerMetrics(false)
		if err != nil && out.checkErr == nil {
			out.checkErr = err
		}
		out.metrics = lm
		return out, tr.write(traceDir, fmt.Sprintf("cold_asm-seed%d.jsonl", cfg.seed))
	}

	// A second, fresh server must compute the same bytes.
	fresh, err := startBoostd()
	if err != nil {
		return nil, err
	}
	defer fresh.stop()
	for i, in := range sampled {
		status, cache, body, err := fresh.post(in.body)
		if err != nil {
			return nil, err
		}
		if status != 200 || cache != "miss" || !bytes.Equal(body, sampleBodies[i]) {
			if out.checkErr == nil {
				out.checkErr = fmt.Errorf("a fresh server answered sample %d with status %d, cache %q and %d bytes; the first gave %d bytes",
					i, status, cache, len(body), len(sampleBodies[i]))
			}
		}
	}
	out.metrics = endToEnd(setup.times, lat, out.attempted-out.failed, m.windowRate(coldWindow), m, heap, math.Exp(logSpeedup/float64(nSpeedup)))
	return out, nil
}

// replayCold replays one cold request layer by layer: the service's own
// share is the client wall time of the same request again, now a cache
// hit (HTTP, JSON decode, validation, key, memo lookup and reply write),
// plus encoding the reply, which a hit skips; the compute is asmCompute.
func replayCold(b *boostd, tr *tracer, in coldInput, first []byte) error {
	var status int
	var cache string
	var body []byte
	if err := tr.layer("service", func() error {
		var err error
		status, cache, body, err = b.post(in.body)
		return err
	}); err != nil {
		return err
	}
	if !bytes.Equal(body, first) || status != 200 || cache != "hit" {
		return fmt.Errorf("repeated request: status %d, cache %q, reply differs: %v", status, cache, !bytes.Equal(body, first))
	}
	var reply service.SimulateResponse
	if err := json.Unmarshal(body, &reply); err != nil {
		return err
	}
	if err := tr.layer("service", func() error { _, err := json.Marshal(reply); return err }); err != nil {
		return err
	}
	return asmCompute(tr, in)
}

// asmCompute runs what boostd computes for one assembly request (parse,
// register allocation, the bounded reference run, profile, the scalar
// baseline and the requested machine) through the same public functions,
// and checks every run against the reference.
func asmCompute(tr *tracer, in coldInput) error {
	var pr *prog.Program
	if err := tr.layer("prog.parse", func() error {
		var err error
		pr, err = prog.Parse(in.asm)
		return err
	}); err != nil {
		return err
	}
	if err := tr.layer("regalloc", func() error { _, err := regalloc.Allocate(pr); return err }); err != nil {
		return err
	}
	var ref *sim.Result
	if err := tr.layer("sim.ref", func() error {
		var err error
		ref, err = sim.Run(pr, sim.RefConfig{MaxSteps: maxRefSteps})
		return err
	}); err != nil {
		return err
	}
	tr.count("sim.ref.steps", float64(ref.Insts))
	if err := tr.layer("profile", func() error { return profile.Annotate(pr) }); err != nil {
		return err
	}
	r := &replayer{name: "asm program", tr: tr}
	bp := &builtPair{test: pr, ref: ref}
	if _, err := r.static(bp, machine.Scalar(), core.Options{LocalOnly: true}); err != nil {
		return err
	}
	_, err := r.static(bp, in.model, core.Options{})
	return err
}

// maxRefSteps is boostd's default bound on the reference run of an
// assembly request.
const maxRefSteps = 20_000_000

// hotModels × hotMems × every named workload is the hot_replay set.
var hotModels = []string{"NoBoost", "MinBoost3", "Boost7"}

// hotMems are perfect memory (no mem block) and the stock hierarchy (an
// empty mem block).
var hotMems = []*service.MemRequest{nil, {}}

// hotInput is one replayed request and the reply set-up computed for it.
type hotInput struct {
	body    []byte
	outLen  int
	reply   []byte
	speedup float64
}

func runHotReplay(cfg runConfig) (*outcome, error) {
	var inputs []*hotInput
	for _, w := range workloads.All() {
		ref, err := sim.Run(w.BuildTest(), sim.RefConfig{})
		if err != nil {
			return nil, err
		}
		for _, model := range hotModels {
			for _, mem := range hotMems {
				body, err := json.Marshal(service.SimulateRequest{Workload: w.Name, Model: model, Mem: mem})
				if err != nil {
					return nil, err
				}
				inputs = append(inputs, &hotInput{body: body, outLen: len(ref.Out)})
			}
		}
	}

	// Set-up: a restarted boostd's cold start over the replay set. Every
	// restarted server must compute byte-identical replies. The first
	// server is the one the run uses.
	out := &outcome{}
	var b *boostd
	setup := newSetupTimer(cfg.seconds, func() (time.Duration, error) {
		t0 := time.Now()
		s, err := startBoostd()
		if err != nil {
			return 0, err
		}
		replies := make([][]byte, len(inputs))
		statuses := make([]int, len(inputs))
		caches := make([]string, len(inputs))
		for i, in := range inputs {
			if statuses[i], caches[i], replies[i], err = s.post(in.body); err != nil {
				s.stop()
				return 0, err
			}
		}
		d := time.Since(t0)
		for i, in := range inputs {
			var r simReply
			if err := json.Unmarshal(replies[i], &r); err != nil && out.checkErr == nil {
				out.checkErr = fmt.Errorf("set-up reply %d: %v: %s", i, err, replies[i])
			}
			if err := checkSimReply(statuses[i], caches[i], "miss", r, in.outLen); err != nil && out.checkErr == nil {
				out.checkErr = fmt.Errorf("set-up request %s: %w", in.body, err)
			}
			if in.reply != nil && !bytes.Equal(in.reply, replies[i]) && out.checkErr == nil {
				out.checkErr = fmt.Errorf("restarted server computed different bytes for %s", in.body)
			}
			in.reply, in.speedup = replies[i], r.Speedup
		}
		if b == nil {
			b = s
		} else {
			s.stop()
		}
		return d, nil
	})
	if err := setup.run(); err != nil {
		return nil, err
	}
	defer func() { b.stop() }()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var lat []float64
	var heap float64
	runtime.GC() // set-up's garbage is not the timed run's
	m := startMeter()
	for round := int64(0); out.attempted < heapAtOps || m.elapsed() < cfg.seconds; round++ {
		for _, k := range rand.New(rand.NewSource(cfg.seed*1000 + round)).Perm(len(inputs)) {
			in := inputs[k]
			out.attempted++
			t0 := time.Now()
			status, cache, body, err := b.post(in.body)
			d := time.Since(t0)
			if err != nil {
				out.failed++
				fmt.Fprintf(cfg.log, "hot_replay: %v\n", err)
				continue
			}
			lat = append(lat, ms(d))
			m.mark()
			if err := setup.due(m); err != nil {
				return nil, err
			}
			if cerr := checkHotReply(status, cache, body, in.reply); cerr != nil && out.checkErr == nil {
				out.checkErr = fmt.Errorf("request %s: %w", in.body, cerr)
			}
			if heap == 0 && out.attempted >= heapAtOps {
				m.pause(func() { heap = heapLiveMiB() })
			}
			if tr != nil {
				m.pause(func() {
					terr := tr.op(out.attempted, d, func() error {
						return tr.layer("service", func() error {
							status, cache, body, err := b.post(in.body)
							if err != nil {
								return err
							}
							return checkHotReply(status, cache, body, in.reply)
						})
					})
					if terr != nil && out.checkErr == nil {
						out.checkErr = terr
					}
				})
			}
		}
	}
	m.stop()
	if err := setup.finish(); err != nil {
		return nil, err
	}
	if tr != nil {
		lm, err := tr.layerMetrics(false)
		if err != nil && out.checkErr == nil {
			out.checkErr = err
		}
		out.metrics = lm
		return out, tr.write(traceDir, fmt.Sprintf("hot_replay-seed%d.jsonl", cfg.seed))
	}
	logSum := 0.0
	for _, in := range inputs {
		logSum += math.Log(in.speedup)
	}
	out.metrics = endToEnd(setup.times, lat, out.attempted-out.failed, m.windowRate(hotWindow), m, heap, math.Exp(logSum/float64(len(inputs))))
	return out, nil
}
