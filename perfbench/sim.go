package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"rdmamon/internal/cluster"
	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
	"rdmamon/internal/workload"
)

// simWorkload is one simulated workload: how to build a cluster from a
// seed, and how long to warm it up and measure it, in simulated time.
//
// A run simulates several clusters, each from its own sub-seed of the
// run's seed, and averages their figures: one short simulation is too
// sensitive to where its seed puts bursts of load. How many clusters a
// run simulates follows from --seconds alone, never from host speed,
// so a seed and a run length give the same simulated figures on any
// build.
type simWorkload struct {
	build func(seed int64) *simCase
	warm  sim.Time
	dur   sim.Time
	// staleProbes is how many random back-ends are sampled for record
	// age at each chunk boundary; 0 takes ages at dispatch instead.
	staleProbes int
}

// clusterWall is about the wall time, in seconds, one cluster of either
// workload takes on the 2-vCPU machine the benchmark was sized on; it
// sets the clusters per run.
const clusterWall = 3

func runSimRubis(o options) (*outcome, error) {
	return runSim(simWorkload{build: buildRubis, warm: sim.Second, dur: 10 * sim.Second}, o)
}

func runSimSweep(o options) (*outcome, error) {
	return runSim(simWorkload{build: buildSweep, warm: 200 * sim.Millisecond, dur: 4 * sim.Second, staleProbes: 8}, o)
}

// buildRubis is the paper's §5 cluster serving RUBiS and a Zipf trace.
func buildRubis(seed int64) *simCase {
	c := cluster.New(cluster.Config{
		Backends:    8,
		Scheme:      core.RDMASync,
		Poll:        sim.Millisecond,
		Seed:        splitmix(seed, 1),
		Policy:      cluster.PolicyWebSphere,
		LocalWeight: -1,
		Gamma:       4,
	})
	c.StartTenantNoise(splitmix(seed, 2))
	rubis := c.StartRUBiS(128, 30*sim.Millisecond, splitmix(seed, 3))
	z := workload.NewZipfTrace(5000, 0.5, splitmix(seed, 4))
	zipf := c.StartZipf(z, 256, 20*sim.Millisecond, splitmix(seed, 5))
	sc := newSimCase(c, seed)
	sc.pools = []*workload.ClientPool{rubis, zipf}
	c.Dispatcher.OnRoute = func(b int) {
		if sc.measuring {
			sc.age(b)
		}
	}
	return sc
}

// buildSweep is a 1024-back-end monitoring-only cluster whose
// back-ends sit at seeded distances in the fabric.
func buildSweep(seed int64) *simCase {
	rng := rand.New(rand.NewSource(splitmix(seed, 7)))
	specs := make([]cluster.BackendSpec, 1024)
	for i := range specs {
		specs[i].NICLatency = sim.Time(rng.Int63n(int64(4 * sim.Microsecond)))
	}
	return newSimCase(cluster.New(cluster.Config{
		Backends:      1024,
		Scheme:        core.RDMASync,
		Poll:          10 * sim.Millisecond,
		Seed:          splitmix(seed, 1),
		NoServers:     true,
		MonitorShards: 8,
		MonitorBatch:  32,
		BackendSpecs:  specs,
	}), seed)
}

// simCase is one built cluster plus the benchmark's observers. All
// times are simulated; samples are in µs.
type simCase struct {
	c     *cluster.Cluster
	pools []*workload.ClientPool
	rng   *rand.Rand // chunk lengths and stale sampling, from the seed

	measuring bool
	stale     []float64 // record age when used
	noRecord  int64     // uses of a back-end with no record yet
	delivery  []float64 // record age on arrival at the monitor
	cycles    []float64 // sweep cycles
	arrivals  int64
	firstAt   sim.Time
	lastAt    sim.Time
}

func newSimCase(c *cluster.Cluster, seed int64) *simCase {
	return &simCase{c: c, rng: rand.New(rand.NewSource(splitmix(seed, 6))), firstAt: -1}
}

// age samples the age of back-end b's newest record at this instant.
func (sc *simCase) age(b int) {
	rec, _, ok := sc.c.Monitor.Latest(b)
	if !ok {
		sc.noRecord++
		return
	}
	sc.stale = append(sc.stale, us(sc.c.Eng.Now()-sim.Time(rec.KTimeNS)))
}

func us(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// observeArrivals hooks every prober's record arrivals. Core's own
// latency and cycle samples are whole microseconds; arrival instants
// are exact. A shard sleeps one poll after its last probe completes, so
// the time between two arrivals from a shard's last back-end, less the
// poll, is one sweep cycle to the nanosecond.
func (sc *simCase) observeArrivals() {
	m := sc.c.Monitor
	ids := m.Backends()
	shards := sc.c.Cfg.MonitorShards
	if shards < 1 {
		shards = 1
	}
	lastOfShard := map[int]bool{}
	for s := 1; s <= shards; s++ {
		lastOfShard[ids[s*len(ids)/shards-1]] = true
	}
	poll := sc.c.Cfg.Poll
	for _, id := range ids {
		last, prev := lastOfShard[id], sim.Time(-1)
		m.Probers[id].OnRecord = func(rec wire.LoadRecord, at sim.Time) {
			if !sc.measuring {
				return
			}
			if last {
				if prev >= 0 {
					sc.cycles = append(sc.cycles, us(at-prev-poll))
				}
				prev = at
			}
			sc.delivery = append(sc.delivery, us(at-sim.Time(rec.KTimeNS)))
			if sc.firstAt < 0 {
				sc.firstAt = at
			}
			sc.lastAt = at
			sc.arrivals++
		}
	}
}

// counters snapshots the layers' public counters, named as figures.
func (sc *simCase) counters() map[string]float64 {
	c := sc.c
	var ctx, reads, sends, doorbells, rdmaErrs, probes, requests, timeouts, rejected uint64
	var probeErrs int
	for _, n := range append([]*simos.Node{c.Front}, c.Backends...) {
		ctx += n.K.CtxSwitches
	}
	for _, n := range append([]*simnet.NIC{c.FNIC}, c.BNICs...) {
		reads += n.RDMAReads
		sends += n.SendsPosted
		doorbells += n.DoorbellBatches
		rdmaErrs += n.RDMAErrors
	}
	for _, p := range c.Monitor.Probers {
		probes += uint64(p.Latency.Count())
		probeErrs += p.Errors
	}
	var routed uint64
	if c.Dispatcher != nil {
		routed = c.Dispatcher.Routed
	}
	for _, p := range sc.pools {
		requests += p.Completed
		timeouts += p.Timeouts
		rejected += p.Rejected
	}
	return map[string]float64{
		"events": float64(c.Eng.Processed), "ctx_switches": float64(ctx),
		"rdma_reads": float64(reads), "sends": float64(sends), "doorbells": float64(doorbells), "rdma_errors": float64(rdmaErrs),
		"probes": float64(probes), "probe_errors": float64(probeErrs),
		"served": float64(c.TotalServed()), "routed": float64(routed),
		"requests": float64(requests), "timeouts": float64(timeouts), "rejected": float64(rejected),
	}
}

// simRep is one cluster's measured window.
type simRep struct {
	// setup and wall are host seconds at the reference speed (see
	// hostSpeed); rawWall is the measured window as the clock read it.
	setup, wall float64
	rawWall     time.Duration
	peakMB      float64
	mallocs     uint64
	simSec      float64
	// fig holds the cluster's simulated figures. Samples are reduced
	// to figures as each cluster ends and the cluster is dropped, so the
	// benchmark's own memory does not grow with the clusters measured.
	fig map[string]float64
}

// Each cluster advances in chunks of 0.5-1.5 simulated ms, drawn from
// the seed, and the benchmark samples heap, queues and record ages at
// chunk boundaries. Chunking does not change the simulation: no event
// runs between two RunFor calls.
const (
	chunkMin  = 500 * sim.Microsecond
	chunkSpan = 1000 * sim.Microsecond
)

// repeat builds, warms up and measures one cluster. measure wraps the
// timed window (the traced run profiles it).
func (w simWorkload) repeat(seed int64, measure func(func()) error) (*simRep, error) {
	runtime.GC()
	speed := newHostSpeed()
	speed.begin()
	sc := w.build(seed)
	c := sc.c
	// The warm-up runs in 1 ms chunks, so the host speed can be sampled
	// between them.
	for warmEnd := c.Eng.Now() + w.warm; c.Eng.Now() < warmEnd; {
		c.Run(min(sim.Millisecond, warmEnd-c.Eng.Now()))
		speed.maybe()
	}
	for _, p := range sc.pools {
		p.ResetStats()
	}
	raw, scale := speed.end()
	r := &simRep{setup: raw.Seconds() * scale, simSec: w.dur.Seconds()}

	sc.observeArrivals()
	before := sc.counters()
	heap := newHeapSampler()
	var queueLen, queueDepth []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	end := c.Eng.Now() + w.dur
	run := func() {
		sc.measuring = true
		ids := c.Monitor.Backends()
		speed.begin()
		for c.Eng.Now() < end {
			c.Run(min(chunkMin+sim.Time(sc.rng.Int63n(int64(chunkSpan))), end-c.Eng.Now()))
			heap.sample()
			queueLen = append(queueLen, float64(c.Eng.Len()))
			if len(c.Servers) > 0 {
				depth := 0
				for _, s := range c.Servers {
					depth += s.QueueDepth()
				}
				queueDepth = append(queueDepth, float64(depth))
			}
			for i := 0; i < w.staleProbes; i++ {
				sc.age(ids[sc.rng.Intn(len(ids))])
			}
			speed.maybe()
		}
		raw, scale := speed.end()
		r.rawWall, r.wall = raw, raw.Seconds()*scale
		sc.measuring = false
	}
	if err := measure(run); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	f := sc.counters()
	for name, v := range before {
		f[name] -= v
	}
	r.peakMB = heap.peakMB()
	r.mallocs = ms1.Mallocs - ms0.Mallocs

	if len(sc.pools) > 0 {
		// Request path: the user's operation is a client request.
		var resp []float64
		for _, p := range sc.pools {
			for _, ms := range p.All.Values() {
				resp = append(resp, ms*1000)
			}
		}
		f["ops_per_s"] = f["requests"] / r.simSec
		f["op_p50_us"] = quantile(resp, 0.5)
		f["op_p99_us"] = quantile(resp, 0.99)
	} else {
		// Monitoring path: the user's operation is one probe, from the
		// sample the back-end's NIC took to the record at the monitor,
		// counted over the span between first and last arrival.
		f["ops_per_s"] = float64(sc.arrivals-1) / (sc.lastAt - sc.firstAt).Seconds()
		f["op_p50_us"] = quantile(sc.delivery, 0.5)
		f["op_p99_us"] = quantile(sc.delivery, 0.99)
	}
	f["stale_p50_us"] = quantile(sc.stale, 0.5)
	f["stale_p99_us"] = quantile(sc.stale, 0.99)
	f["sweep_mean_us"] = mean(sc.cycles)
	f["cycle_p50_us"] = quantile(sc.cycles, 0.5)
	f["queue_len_p50"] = quantile(queueLen, 0.5)
	f["queue_depth_p50"] = quantile(queueDepth, 0.5)
	f["no_record"] = float64(sc.noRecord)
	f["sim_s"] = r.simSec
	r.fig = f
	return r, nil
}

// simMeans and simCounts name the simulated figures, in digest order.
// The means are averaged over clusters and the counts summed.
var (
	simMeans = []string{
		"ops_per_s", "op_p50_us", "op_p99_us", "stale_p50_us", "stale_p99_us", "sweep_mean_us",
		"cycle_p50_us", "queue_len_p50", "queue_depth_p50",
	}
	simCounts = []string{
		"events", "probes", "probe_errors", "served", "routed", "requests", "timeouts", "rejected",
		"ctx_switches", "rdma_reads", "sends", "doorbells", "rdma_errors", "no_record", "sim_s",
	}
	simFigures = append(append([]string(nil), simMeans...), simCounts...)
)

// figures combines the clusters' simulated figures. They depend on the
// seeds alone, never on host timing.
func figures(reps []*simRep) map[string]float64 {
	f := map[string]float64{}
	for _, r := range reps {
		for _, name := range simFigures {
			f[name] += r.fig[name]
		}
	}
	for _, name := range simMeans {
		f[name] /= float64(len(reps))
	}
	return f
}

func unprofiled(fn func()) error { fn(); return nil }

// pass measures k clusters, from sub-seeds 0..k-1 of seed.
func (w simWorkload) pass(seed int64, k int, measure func(func()) error) ([]*simRep, error) {
	var reps []*simRep
	for i := 0; i < k; i++ {
		r, err := w.repeat(splitmix(seed, uint64(100+i)), measure)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// wallMsPerSimS is the median over reps of host ms per simulated
// second, at the reference speed, or as the clock read it if raw.
func wallMsPerSimS(reps []*simRep, raw bool) float64 {
	var v []float64
	for _, r := range reps {
		w := r.wall
		if raw {
			w = r.rawWall.Seconds()
		}
		v = append(v, w*1000/r.simSec)
	}
	return median(v)
}

// runSim measures w: it simulates round(seconds / clusterWall)
// clusters. Traced, it then simulates the first half of them again
// under the profiler and checks that each agrees with its untraced run.
func runSim(w simWorkload, o options) (*outcome, error) {
	out := newOutcome()
	k := max(int(math.Round(o.seconds/clusterWall)), 1)
	plain, err := w.pass(o.seed, k, unprofiled)
	if err != nil {
		return nil, err
	}
	f := figures(plain)
	out.note("digest %s (simulated figures of seed %d over %d clusters, %.0f simulated s)", digest(simFigures, f), o.seed, k, f["sim_s"])

	out.attempted = int64(f["requests"] + f["timeouts"] + f["rejected"] + f["probes"])
	out.failed = int64(f["timeouts"] + f["rejected"] + f["probe_errors"] + f["rdma_errors"] + f["no_record"])
	if f["routed"] > 0 {
		out.check(f["served"] > 0, "served_rps = 0")
	}

	var setups, peaks, allocs []float64
	for _, r := range plain {
		setups = append(setups, r.setup)
		peaks = append(peaks, r.peakMB)
		allocs = append(allocs, ratio(float64(r.mallocs), r.fig["events"]))
	}
	v := out.values
	for _, name := range simMeans {
		v[name] = f[name]
	}
	v["op_tail_us"] = f["op_p99_us"]
	v["setup_s"] = median(setups)
	v["host_ms_per_unit"] = wallMsPerSimS(plain, false)
	out.note("%.4g host ms per simulated s as the clock read it, %.4g at the reference speed", wallMsPerSimS(plain, true), v["host_ms_per_unit"])
	v["peak_heap_mb"] = median(peaks)
	out.note("%.0f events per simulated s, %.3g allocs/event", f["events"]/f["sim_s"], median(allocs))
	if !o.trace {
		return out, nil
	}

	att := newAttribution()
	traced, err := w.pass(o.seed, max(k/2, 1), att.profiled)
	if err != nil {
		return nil, err
	}
	for i := range traced {
		got, exp := digest(simFigures, figures(traced[i:i+1])), digest(simFigures, figures(plain[i:i+1]))
		out.check(got == exp, "cluster %d: traced digest %s, untraced %s", i, got, exp)
	}
	ft := figures(traced)
	out.note("traced digest %s over the first %d clusters", digest(simFigures, ft), len(traced))

	perSimS := func(name string) float64 { return f[name] / f["sim_s"] }
	v["sim.events_per_sim_s"] = perSimS("events")
	v["sim.allocs_per_event"] = median(allocs)
	v["sim.queue_len_p50"] = f["queue_len_p50"]
	v["simos.ctx_switches_per_sim_s"] = perSimS("ctx_switches")
	v["simnet.rdma_reads_per_sim_s"] = perSimS("rdma_reads")
	v["simnet.sends_per_sim_s"] = perSimS("sends")
	v["simnet.doorbell_batches_per_sim_s"] = perSimS("doorbells")
	v["simnet.rdma_errors"] = f["rdma_errors"]
	v["core.probes_per_sim_s"] = perSimS("probes")
	v["core.probe_errors"] = f["probe_errors"]
	v["loadbalance.picks_per_sim_s"] = perSimS("routed")
	v["httpsim.served_per_sim_s"] = perSimS("served")
	v["httpsim.queue_depth_p50"] = f["queue_depth_p50"]
	v["workload.timeouts"] = f["timeouts"]

	// Profiled time is divided by the work of the traced clusters.
	cpu := func(b string) float64 { return float64(att.ns[b]) }
	v["sim.ns_per_event"] = ratio(cpu("sim"), ft["events"])
	v["simos.ns_per_sim_s"] = ratio(cpu("simos"), ft["sim_s"])
	v["core.ns_per_probe"] = ratio(cpu("core"), ft["probes"])
	v["wire.ns_per_probe"] = ratio(cpu("wire"), ft["probes"])
	v["loadbalance.ns_per_pick"] = ratio(cpu("loadbalance"), ft["routed"])
	v["httpsim.ns_per_request"] = ratio(cpu("httpsim"), ft["requests"])
	v["workload.ns_per_request"] = ratio(cpu("workload"), ft["requests"])
	v["trace_overhead"] = ratio(wallMsPerSimS(traced, false), wallMsPerSimS(plain[:len(traced)], false))
	attributionNotes(out, att, ft["sim_s"], "sim_s")
	return out, nil
}
