package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rdmamon/internal/connpool"
	"rdmamon/internal/core"
	"rdmamon/internal/livemon"
	"rdmamon/internal/procfs"
)

const (
	liveSetups = 21                     // set-ups per run; setup_s is their median
	liveRound  = 100 * time.Millisecond // length of one phase of one round
	ringK      = 32
	warmPoint  = 500 // point fetches of the warm-up
	warmRing   = 200 // ring fetches of the warm-up
)

// liveRig is the live workload's system: a point agent reached through a
// connection pool and a history-ring agent reached over its own
// connection, both on loopback.
type liveRig struct {
	nodePoint, nodeRing uint16
	pointAgent          *livemon.Agent
	ringAgent           *livemon.Agent
	pool                *livemon.ConnPool
	point, ring         *livemon.Probe

	lastPointSeq, lastRingSeq uint32
}

// synthetic is a two-CPU machine whose run queue, task count and
// memory use are drawn afresh from the seed for every sample. Its
// utilisation slice is drawn once: snapshots are returned by value and
// read after the provider's lock is released, so the slice they share
// must not change.
func synthetic(seed int64) *procfs.Synthetic {
	rng := rand.New(rand.NewSource(seed))
	s := &procfs.Synthetic{Tick: func(s *procfs.Snapshot) {
		s.NrRunning = rng.Intn(16)
		s.NrTasks = 100 + rng.Intn(50)
		s.MemUsedKB = uint64(1<<18 + rng.Intn(1<<16))
	}}
	s.Set(procfs.Snapshot{NumCPU: 2, UtilPerMille: []int{rng.Intn(1001), rng.Intn(1001)}, MemTotalKB: 1 << 20})
	return s
}

func startRig(seed int64, speed *hostSpeed) (rig *liveRig, err error) {
	node := uint16(1 + uint64(splitmix(seed, 8))%60000)
	rig = &liveRig{nodePoint: node, nodeRing: node + 1}
	defer func() {
		if err != nil {
			rig.close()
		}
	}()
	rig.pointAgent, err = livemon.StartAgent(livemon.Config{
		Scheme: core.RDMASync, Addr: "127.0.0.1:0", NodeID: rig.nodePoint, Provider: synthetic(splitmix(seed, 9)),
	})
	if err != nil {
		return rig, fmt.Errorf("start point agent: %w", err)
	}
	rig.ringAgent, err = livemon.StartAgent(livemon.Config{
		Scheme: core.RDMASync, Addr: "127.0.0.1:0", NodeID: rig.nodeRing, Provider: synthetic(splitmix(seed, 10)), HistoryK: ringK,
	})
	if err != nil {
		return rig, fmt.Errorf("start ring agent: %w", err)
	}
	rig.pool = livemon.NewConnPool(livemon.PoolConfig{Config: connpool.Config{MaxConns: 4}})
	if rig.point, err = livemon.DialPooled(rig.pool, rig.pointAgent.Addr()); err != nil {
		return rig, fmt.Errorf("dial point agent: %w", err)
	}
	if rig.ring, err = livemon.Dial(rig.ringAgent.Addr()); err != nil {
		return rig, fmt.Errorf("dial ring agent: %w", err)
	}
	if rig.ring.RingK() != ringK {
		return rig, fmt.Errorf("ring agent publishes %d slots, want %d", rig.ring.RingK(), ringK)
	}
	var ph livePhase
	for i := 0; i < warmPoint; i++ {
		if err := rig.fetchPoint(&ph); err != nil {
			return rig, fmt.Errorf("warm-up: %w", err)
		}
		speed.maybe()
	}
	for i := 0; i < warmRing; i++ {
		if err := rig.fetchRing(&ph); err != nil {
			return rig, fmt.Errorf("warm-up: %w", err)
		}
		speed.maybe()
	}
	return rig, nil
}

func (r *liveRig) close() {
	if r.point != nil {
		r.point.Close()
	}
	if r.ring != nil {
		r.ring.Close()
	}
	if r.pool != nil {
		r.pool.Close()
	}
	if r.pointAgent != nil {
		r.pointAgent.Close()
	}
	if r.ringAgent != nil {
		r.ringAgent.Close()
	}
}

// livePhase collects one measuring phase's observations. Latencies
// are reduced to per-round figures as each round ends, so memory stays
// fixed however many fetches a build manages, and a round disturbed by
// the host moves the median over rounds little.
type livePhase struct {
	pointLat, ringLat, age []float64 // µs, the current round's
	rounds                 map[string][]float64
	points, rings          int64
	errs                   int64
	bad                    []string // records that broke a correctness rule
}

// median of one per-round figure.
func (ph *livePhase) median(name string) float64 { return median(ph.rounds[name]) }

func (ph *livePhase) reject(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	if len(ph.bad) < 5 {
		ph.bad = append(ph.bad, err.Error())
	}
	return err
}

// fetchPoint is one pooled point fetch; the record must carry the
// agent's NodeID and a Seq above the previous one.
func (r *liveRig) fetchPoint(ph *livePhase) error {
	t0 := time.Now()
	rec, err := r.point.Fetch()
	t1 := time.Now()
	if err != nil {
		ph.errs++
		return err
	}
	ph.pointLat = append(ph.pointLat, float64(t1.Sub(t0).Nanoseconds())/1e3)
	ph.age = append(ph.age, float64(t1.UnixNano()-rec.KTimeNS)/1e3)
	if rec.NodeID != r.nodePoint || rec.Seq <= r.lastPointSeq {
		ph.errs++
		return ph.reject("point record node %d seq %d after seq %d, want node %d", rec.NodeID, rec.Seq, r.lastPointSeq, r.nodePoint)
	}
	r.lastPointSeq = rec.Seq
	return nil
}

// fetchRing is one history-window fetch; the window must decode
// untorn (after the probe's own retries), hold min(pushes, K) records
// that carry the agent's NodeID with strictly decreasing Seqs, and
// have its newest record above the previous window's newest.
func (r *liveRig) fetchRing(ph *livePhase) error {
	t0 := time.Now()
	v, err := r.ring.FetchHistory()
	t1 := time.Now()
	if err != nil {
		ph.errs++
		return err
	}
	ph.ringLat = append(ph.ringLat, float64(t1.Sub(t0).Nanoseconds())/1e3)
	want := ringK
	if v.Pushes < ringK {
		want = int(v.Pushes)
	}
	ok := v.NodeID == r.nodeRing && v.Count == want && v.Count > 0 && v.Records[0].Seq > r.lastRingSeq
	for i := 0; ok && i < v.Count; i++ {
		ok = v.Records[i].NodeID == r.nodeRing && (i == 0 || v.Records[i].Seq < v.Records[i-1].Seq)
	}
	if !ok {
		ph.errs++
		return ph.reject("ring window node %d count %d newest seq %d after %d, want node %d count %d increasing", v.NodeID, v.Count, v.Records[0].Seq, r.lastRingSeq, r.nodeRing, want)
	}
	r.lastRingSeq = v.Records[0].Seq
	return nil
}

// measure runs rounds of one point phase and one ring phase, each
// liveRound long, until the deadline. Each round's host times are
// scaled to the reference speed by the slices of the reference kernel
// taken between its fetches (see hostSpeed); raw_ figures are the
// round's as the clock read them.
func (r *liveRig) measure(seconds float64, heap *heapSampler) *livePhase {
	ph := &livePhase{rounds: map[string][]float64{}}
	add := func(name string, v float64) { ph.rounds[name] = append(ph.rounds[name], v) }
	speed := newHostSpeed()
	phase := func(fetch func(*livePhase) error) time.Duration {
		t0 := speed.elapsed()
		for i := 0; speed.elapsed()-t0 < liveRound; i++ {
			fetch(ph) // failures are counted in ph
			if i%64 == 0 {
				heap.sample()
			}
			speed.maybe()
		}
		return speed.elapsed() - t0
	}
	stop := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(ph.rounds) == 0 || time.Now().Before(stop) {
		ph.pointLat, ph.age, ph.ringLat = ph.pointLat[:0], ph.age[:0], ph.ringLat[:0]
		speed.begin()
		pw := phase(r.fetchPoint)
		rw := phase(r.fetchRing)
		_, k := speed.end()
		points, rings := len(ph.pointLat), len(ph.ringLat)
		ph.points += int64(points)
		ph.rings += int64(rings)
		perK := (pw + rw).Seconds() * 1000 / float64(points+rings) * 1000
		add("raw_host_ms_per_unit", perK)
		add("host_ms_per_unit", perK*k)
		add("ops_per_s", float64(points)/pw.Seconds()/k)
		add("op_p50_us", quantile(ph.pointLat, 0.5)*k)
		add("op_tail_us", quantile(ph.pointLat, 0.95)*k)
		add("op_p99_us", quantile(ph.pointLat, 0.99)*k)
		add("stale_p50_us", quantile(ph.age, 0.5)*k)
		add("stale_p99_us", quantile(ph.age, 0.99)*k)
		add("sweep_mean_us", mean(ph.ringLat)*k)
		add("ring_p50_us", quantile(ph.ringLat, 0.5)*k)
		add("ring_p99_us", quantile(ph.ringLat, 0.99)*k)
	}
	return ph
}

func runLive(o options) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var rig *liveRig
	speed := newHostSpeed()
	for i := 0; i < liveSetups; i++ {
		runtime.GC()
		speed.begin()
		r, err := startRig(o.seed, speed)
		if err != nil {
			return nil, err
		}
		raw, k := speed.end()
		setups = append(setups, raw.Seconds()*k)
		if i < liveSetups-1 {
			r.close()
		} else {
			rig = r
		}
	}
	defer rig.close()

	heap := newHeapSampler()
	var ms0, ms1 runtime.MemStats
	torn0, rings0 := rig.ring.TornRetries, rig.ring.RingSamples
	runtime.ReadMemStats(&ms0)
	plain := rig.measure(o.seconds, heap)
	runtime.ReadMemStats(&ms1)

	fetches := float64(plain.points + plain.rings)
	reads := fetches + float64(rig.ring.TornRetries-torn0)
	out.attempted = int64(fetches) + plain.errs
	out.failed = plain.errs
	for _, b := range plain.bad {
		out.check(false, "%s", b)
	}
	v := out.values
	v["setup_s"] = median(setups)
	v["peak_heap_mb"] = heap.peakMB()
	for _, name := range []string{"host_ms_per_unit", "ops_per_s", "op_p50_us", "op_tail_us", "op_p99_us", "stale_p50_us", "stale_p99_us", "sweep_mean_us"} {
		v[name] = plain.median(name)
	}
	v["ring_fetch_p50_us"] = plain.median("ring_p50_us")
	out.note("%d rounds: %d point fetches, %d ring fetches, %.3g allocs/read",
		len(plain.rounds["ops_per_s"]), plain.points, plain.rings, ratio(float64(ms1.Mallocs-ms0.Mallocs), reads))
	out.note("%.4g host ms per 1000 fetches as the clock read it, %.4g at the reference speed", plain.median("raw_host_ms_per_unit"), v["host_ms_per_unit"])
	if !o.trace {
		return out, nil
	}

	att := newAttribution()
	tornMid := rig.ring.TornRetries
	var traced *livePhase
	if err := att.profiled(func() { traced = rig.measure(o.seconds/2, heap) }); err != nil {
		return nil, err
	}
	out.attempted += traced.points + traced.rings + traced.errs
	out.failed += traced.errs
	for _, b := range traced.bad {
		out.check(false, "traced: %s", b)
	}
	tPoint, tRing := float64(traced.points), float64(traced.rings)
	tReads := tPoint + tRing + float64(rig.ring.TornRetries-tornMid)
	st := rig.pool.Stats()
	cpu := func(b string) float64 { return float64(att.ns[b]) }
	v["connpool.dials"] = float64(st.Dials)
	v["connpool.sheds"] = float64(st.ShedTotal())
	v["connpool.ns_per_fetch"] = ratio(cpu("connpool"), tPoint)
	v["tcpverbs.reads"] = reads + tReads
	v["tcpverbs.ns_per_read"] = ratio(cpu("tcpverbs"), tReads)
	v["tcpverbs.allocs_per_read"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), reads)
	v["net.syscall_ns_per_read"] = ratio(cpu(bucketSyscall), tReads)
	v["wire.ns_per_fetch"] = ratio(cpu("wire"), tPoint+tRing)
	v["livemon.ns_per_fetch"] = ratio(cpu("livemon"), tPoint+tRing)
	v["livemon.rehandshakes"] = float64(rig.point.Rehandshakes + rig.ring.Rehandshakes)
	v["livemon.torn_retries"] = float64(rig.ring.TornRetries - torn0)
	v["livemon.ring_samples_per_read"] = ratio(float64(rig.ring.RingSamples-rings0), float64(plain.rings)+tRing)
	v["livemon.record_age_p50_us"] = v["stale_p50_us"]
	v["livemon.ring_fetch_p99_us"] = plain.median("ring_p99_us")
	v["trace_overhead"] = ratio(traced.median("op_p50_us"), v["op_p50_us"])
	attributionNotes(out, att, (tPoint+tRing)/1000, "1000_fetches")
	return out, nil
}
