// Command perfbench is the repository's performance benchmark. It
// measures rdmamon from outside: it builds the same clusters and live
// agents a user would, drives them, and reads only the counters each
// layer already exports plus a CPU profile of a separate traced run.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// Every input (cluster, client, noise, fabric and synthetic-load seeds)
// is drawn from --seed. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics. With
// --trace 0 the metrics are the end-to-end metrics; with --trace 1 they
// are the per-layer metrics: the untraced measurement runs in full, then
// half as much again under the CPU profiler, so the two can be compared
// (a traced run takes about 1.5 times --seconds). The exit status is
// non-zero when a correctness check fails:
//
//   - no operation fails: no client timeout or reject, no probe, RDMA
//     or fetch error, no dispatch to a back-end without a record;
//   - sim-rubis serves requests;
//   - every live record carries its agent's NodeID and a Seq above the
//     probe's previous one, and every ring window decodes untorn after
//     the probe's own retries, with min(pushes, 32) records of strictly
//     decreasing Seq;
//   - a traced simulation reproduces the untraced one's simulated
//     figures bit for bit (an FNV digest of them is printed, so runs of
//     two builds can be compared too);
//   - the traced run's attribution shares sum to 100%.
//
// # Workloads
//
// Each workload runs in one process. The simulated ones drive one
// engine on one goroutine; the live one uses one client goroutine and
// one connection at a time.
//
//   - sim-rubis: the paper's §5 cluster. Eight back-ends run RDMA-Sync
//     at a 1 ms poll behind WebSphere weighted dispatch (LocalWeight -1,
//     Gamma 4), with co-tenant noise and two closed-loop client pools:
//     128 RUBiS clients (30 ms think) and 256 Zipf α=0.5 clients (20 ms
//     think). It exercises the request path: simos scheduling and IRQs,
//     two-sided simnet sends, httpsim, workload and loadbalance, while
//     the probe sweep stays small (8 reads per simulated ms).
//   - sim-sweep: 1024 server-less back-ends polled by RDMA-Sync at 10 ms
//     with 8 monitor shards posting doorbell batches of 32 reads. It runs
//     only the monitoring path: batched one-sided simnet reads, the core
//     probe/decode/trend path and wire decode; no httpsim, workload or
//     loadbalance code runs. Each back-end's extra NIC latency (0-4 µs,
//     its place in the fabric) is drawn from the seed. Together with
//     sim-rubis it uses the engine and simnet in two different ways, so
//     a gain for one that costs the other shows.
//   - live-loopback: two in-process livemon RDMA-Sync agents on
//     127.0.0.1 serving procfs.Synthetic loads. Rounds alternate two
//     closed-loop phases of one client, 100 ms each: a point phase of
//     Probe.Fetch on a livemon.DialPooled probe (every fetch leases and
//     returns a connpool connection) and a ring phase of
//     Probe.FetchHistory on a plain Dial probe against a 32-slot history
//     ring. It is the only workload that runs tcpverbs, livemon and
//     connpool, and it runs no simulator. Its phases read small and
//     large payloads, and connpool works in the point phase only.
//
// # End-to-end metrics
//
// Every workload reports every metric, with one meaning per workload
// (endToEnd below says which). Simulated workloads average their
// figures over the clusters of a run; the live workload takes the
// median over its 100 ms rounds of each round's figure. Simulated
// figures (the sim-* ops_per_s, op_*, stale_* and sweep_mean_us) are
// exact for a seed and must stay bit-identical under any pure speed-up.
// The tail metric op_tail_us is the 99th percentile on the simulated
// workloads and the 95th on the live one: about 1% of loopback fetches
// fall into a mode of slow wake-ups at twice the usual latency, so the
// live 99th percentile sits on the edge of that mode and swings by up
// to two times from one 100 ms round to the next. The live 99th
// percentile is printed as fetch_p99_us. The report prints them again under each workload's own names
// (wall_ms_per_sim_s, served_rps, resp_p50_ms, cycle_p50_us,
// fetch_p50_us, ring_fetch_p50_us and so on; see named below). The
// failure ratio is printed but is no metric of its own: the checks
// demand it be 0, and the result line carries failed and attempted.
// BASELINE.md holds the medians and quartiles of ten seeds per
// workload, measured when the benchmark was defined.
//
// # Host speed
//
// Host-time figures (setup_s, host_ms_per_unit and every live-loopback
// time and rate) are scaled to a reference speed: a fixed reference
// kernel runs for about 1 ms in every 10 ms of measured work, its
// slices are taken out of the measured time, and each figure is scaled
// by how fast the kernel ran next to it (hostspeed.go). On a shared
// virtual machine the same simulation's wall time moves by up to 1.8
// times from minute to minute; scaled, it stays within a few percent
// from run to run. The report prints host_ms_per_unit as the clock read
// it too. The per-layer ns figures are CPU-profile time and are not
// scaled.
//
// # Per-layer metrics
//
// Counters come from the layers' public fields and accessors; livemon
// does not expose its tcpverbs agent, so tcpverbs.reads counts the
// one-sided reads the probes issued. Time per layer comes from the
// traced run: every CPU-profile sample is charged to the
// rdmamon/internal/<pkg> of its innermost layer frame, inlined frames
// included, so container/heap and mallocgc under sim.(*Engine).Schedule
// count as sim. Helper packages that are not layers (cluster, metrics,
// procfs) are charged to the layer that called them. Three buckets are
// not layers: net.syscall (any stack through syscall. or
// internal/poll.), runtime.gc (background GC workers) and runtime.other
// (everything else, including this benchmark's own hooks). The buckets
// sum to 100%. What each layer's metrics should move:
//
//	sim          events_per_sim_s, ns_per_event,   host_ms_per_unit of both sim
//	             allocs_per_event, queue_len_p50   workloads (about half their CPU);
//	                                               nothing on live
//	simos        ctx_switches_per_sim_s,           host_ms_per_unit, mostly
//	             ns_per_sim_s                      sim-rubis; timer ticks on sim-sweep
//	simnet       rdma_reads_, sends_,              host_ms_per_unit: reads on
//	             doorbell_batches_per_sim_s,       sim-sweep, sends on sim-rubis
//	             rdma_errors
//	core         probes_per_sim_s, probe_errors,   host_ms_per_unit of sim-sweep;
//	             ns_per_probe                      a little on sim-rubis
//	wire         ns_per_probe, ns_per_fetch        host_ms_per_unit of sim-sweep;
//	                                               sweep_mean_us of live
//	loadbalance  picks_per_sim_s, ns_per_pick      host_ms_per_unit of sim-rubis;
//	                                               stale_* must not move
//	httpsim,     served_per_sim_s, queue_depth_p50 host_ms_per_unit of sim-rubis;
//	workload     timeouts, ns_per_request          queue depth moves op_tail_us
//	connpool     dials, sheds, ns_per_fetch        live op_* (point phase only)
//	tcpverbs     reads, ns_per_read,               live op_*, ops_per_s,
//	             allocs_per_read,                  sweep_mean_us
//	             net.syscall_ns_per_read
//	livemon      ns_per_fetch, rehandshakes,       live op_*, sweep_mean_us
//	             torn_retries,
//	             ring_samples_per_read,
//	             record_age_p50_us,
//	             ring_fetch_p99_us (not steady
//	             enough to gate)
//	runtime      gc_share, other_share,            every workload
//	             trace_overhead
//
// Every bucket also reports its self_share of the traced CPU time.
//
// # What is not measured yet
//
//   - Real /proc: a procfs.NewLinux snapshot costs about 0.1 ms with a
//     millisecond-scale p99 on a small VM, and reads of a fixture tree
//     are as noisy, so it would measure the host's file system calls
//     rather than this program. The live agents sample procfs.Synthetic.
//   - Hybrid push and claim CAS: both are extensions on top of the
//     monitoring path measured here, their cost is per change or per
//     claim renewal rather than per probe, and no workload of the paper
//     drives them. They get workloads of their own when a change
//     targets them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
)

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics in report order, each with its
// unit and what it means on each workload.
var endToEnd = []struct{ name, unit, means string }{
	{"setup_s", "s", "median build of the cluster or agents, plus dial and warm-up, at the reference speed"},
	{"host_ms_per_unit", "ms", "host wall ms per simulated second (sim-*) or per 1000 fetches of both phases (live), at the reference speed"},
	{"peak_heap_mb", "MB", "peak heap in use (median over clusters for sim-*)"},
	{"ops_per_s", "1/s", "served requests per simulated s (rubis), probes per simulated s (sweep), point fetches per s at the reference speed (live)"},
	{"op_p50_us", "us", "client response time (rubis), sample-to-monitor probe latency (sweep), point fetch latency (live): median"},
	{"op_tail_us", "us", "the same at the 99th percentile (sim-*) or the 95th (live)"},
	{"stale_p50_us", "us", "age now-KTimeNS of the record used: picked back-end at dispatch (rubis), a random back-end at random instants (sweep), each point fetch (live): median"},
	{"stale_p99_us", "us", "the same at the 99th percentile"},
	{"sweep_mean_us", "us", "mean monitor sweep cycle (sim-*) or mean 32-slot ring fetch (live)"},
}

// named lists each workload's own names for its end-to-end figures,
// printed with the report: a figure named after the metric it equals
// (scaled to the unit shown), or one the workload adds, such as a
// median beside the gated mean.
var named = map[string][]struct {
	name, of, unit string
	scale          float64
}{
	"sim-rubis": {
		{"wall_ms_per_sim_s", "host_ms_per_unit", "ms", 1},
		{"served_rps", "ops_per_s", "1/s", 1},
		{"resp_p50_ms", "op_p50_us", "ms", 1e-3},
		{"resp_p99_ms", "op_tail_us", "ms", 1e-3},
	},
	"sim-sweep": {
		{"wall_ms_per_sim_s", "host_ms_per_unit", "ms", 1},
		{"cycle_p50_us", "cycle_p50_us", "us", 1},
		{"probe_p99_us", "op_tail_us", "us", 1},
	},
	"live-loopback": {
		{"fetch_p50_us", "op_p50_us", "us", 1},
		{"fetch_p95_us", "op_tail_us", "us", 1},
		{"fetch_p99_us", "op_p99_us", "us", 1},
		{"fetches_per_s", "ops_per_s", "1/s", 1},
		{"ring_fetch_p50_us", "ring_fetch_p50_us", "us", 1},
	},
}

// perLayer lists the per-layer metrics a traced run reports, in order.
// A layer that does no work on a workload reports 0.
var perLayer = []struct{ name, unit string }{
	{"sim.events_per_sim_s", "1/s"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"sim.queue_len_p50", "count"},
	{"sim.self_share", "%"},
	{"simos.ctx_switches_per_sim_s", "1/s"},
	{"simos.ns_per_sim_s", "ns"},
	{"simos.self_share", "%"},
	{"simnet.rdma_reads_per_sim_s", "1/s"},
	{"simnet.sends_per_sim_s", "1/s"},
	{"simnet.doorbell_batches_per_sim_s", "1/s"},
	{"simnet.rdma_errors", "count"},
	{"simnet.self_share", "%"},
	{"core.probes_per_sim_s", "1/s"},
	{"core.probe_errors", "count"},
	{"core.ns_per_probe", "ns"},
	{"core.self_share", "%"},
	{"wire.ns_per_probe", "ns"},
	{"wire.ns_per_fetch", "ns"},
	{"wire.self_share", "%"},
	{"loadbalance.picks_per_sim_s", "1/s"},
	{"loadbalance.ns_per_pick", "ns"},
	{"loadbalance.self_share", "%"},
	{"httpsim.served_per_sim_s", "1/s"},
	{"httpsim.queue_depth_p50", "count"},
	{"httpsim.ns_per_request", "ns"},
	{"httpsim.self_share", "%"},
	{"workload.timeouts", "count"},
	{"workload.ns_per_request", "ns"},
	{"workload.self_share", "%"},
	{"connpool.dials", "count"},
	{"connpool.sheds", "count"},
	{"connpool.ns_per_fetch", "ns"},
	{"connpool.self_share", "%"},
	{"tcpverbs.reads", "count"},
	{"tcpverbs.ns_per_read", "ns"},
	{"tcpverbs.allocs_per_read", "count"},
	{"tcpverbs.self_share", "%"},
	{"net.syscall_ns_per_read", "ns"},
	{"net.syscall_share", "%"},
	{"livemon.ns_per_fetch", "ns"},
	{"livemon.rehandshakes", "count"},
	{"livemon.torn_retries", "count"},
	{"livemon.ring_samples_per_read", "count"},
	{"livemon.record_age_p50_us", "us"},
	{"livemon.ring_fetch_p99_us", "us"},
	{"livemon.self_share", "%"},
	{"runtime.gc_share", "%"},
	{"runtime.other_share", "%"},
	{"trace_overhead", "ratio"},
}

// outcome is what one workload run hands back to main.
type outcome struct {
	values    map[string]float64 // metric name -> value
	attempted int64
	failed    int64
	failures  []string // failed correctness checks
	notes     []string // extra report lines (digests, attribution)
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// check records a failed correctness check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// options are the command-line inputs every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

var workloads = []struct {
	name string
	run  func(options) (*outcome, error)
}{
	{"sim-rubis", runSimRubis},
	{"sim-sweep", runSimSweep},
	{"live-loopback", runLive},
}

func main() {
	name := flag.String("workload", "all", "workload to run: sim-rubis, sim-sweep, live-loopback or all")
	seed := flag.Int64("seed", 1, "seed every workload input is drawn from")
	seconds := flag.Float64("seconds", 10, "measured wall seconds per workload")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// Every workload runs on one P, and run.sh pins the process to one
	// CPU. On a shared 2-vCPU VM how much of the second vCPU is free
	// changes from minute to minute; with two Ps that change showed up
	// directly in the host-time figures (identical simulations spread by
	// ±25%, live runs settled into modes 35% apart).
	runtime.GOMAXPROCS(1)
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	ran, ok := false, true
	for _, w := range workloads {
		if *name != "all" && *name != w.name {
			continue
		}
		ran = true
		if !runOne(w.name, w.run, o) {
			ok = false
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload, prints its report and result line, and
// reports whether every correctness check passed.
func runOne(name string, run func(options) (*outcome, error), o options) bool {
	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return false
	}
	out.check(out.failed == 0, "fail_ratio %d/%d, want 0", out.failed, out.attempted)
	out.check(out.attempted > 0, "no operation attempted")
	fmt.Printf("workload %s seed %d trace %v\n", name, o.seed, o.trace)
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  %-34s %14.6g %s\n", "fail_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	res := map[string]metric{}
	if o.trace {
		for _, m := range perLayer {
			res[m.name] = metric{Value: out.values[m.name], Unit: m.unit}
			fmt.Printf("  %-34s %14.6g %s\n", m.name, out.values[m.name], m.unit)
		}
	} else {
		for _, m := range endToEnd {
			v := out.values[m.name]
			res[m.name] = metric{Value: v, Unit: m.unit}
			fmt.Printf("  %-34s %14.6g %-5s %s\n", m.name, v, m.unit, m.means)
			out.check(v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v), "%s = %v, want a positive number", m.name, v)
		}
		for _, a := range named[name] {
			line := fmt.Sprintf("  %-34s %14.6g %-5s", a.name, out.values[a.of]*a.scale, a.unit)
			if a.of != a.name {
				line += " = " + a.of
			}
			fmt.Println(strings.TrimRight(line, " "))
		}
	}
	for _, f := range out.failures {
		fmt.Println("  CHECK FAILED: " + f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.failures) == 0, out.attempted, out.failed, res})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return false
	}
	fmt.Println(string(line))
	return len(out.failures) == 0
}

// quantile returns the q-quantile of vals by linear interpolation
// between closest ranks (0 for no values). vals is sorted in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	return vals[lo] + (pos-float64(lo))*(vals[lo+1]-vals[lo])
}

func median(vals []float64) float64 { return quantile(append([]float64(nil), vals...), 0.5) }

func mean(vals []float64) float64 {
	t := 0.0
	for _, x := range vals {
		t += x
	}
	return ratio(t, float64(len(vals)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest is an FNV-1a hash of named values, in the given order, as
// exact bit patterns: two runs agree on it only when they agree on
// every bit of every value.
func digest(names []string, values map[string]float64) string {
	h := fnv.New64a()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%016x;", n, math.Float64bits(values[n]))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// heapSampler tracks the peak of live heap objects, read through
// runtime/metrics, which does not stop the world.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapSampler) peakMB() float64 { return float64(h.peak) / (1 << 20) }

// splitmix derives independent sub-seeds from the workload seed, so
// cluster, clients and noise each get their own stream.
func splitmix(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// shareName maps attribution buckets to their share metric names.
func shareName(bucket string) string {
	switch bucket {
	case bucketSyscall:
		return "net.syscall_share"
	case bucketGC:
		return "runtime.gc_share"
	case bucketOther:
		return "runtime.other_share"
	}
	return bucket + ".self_share"
}

// attributionNotes renders the traced run's attribution report: each
// bucket's share and CPU ns per workload unit.
func attributionNotes(o *outcome, a *attribution, units float64, unitName string) {
	total := a.total()
	sum := 0.0
	for _, b := range buckets {
		share := 100 * ratio(float64(a.ns[b]), float64(total))
		sum += share
		o.values[shareName(b)] = share
		o.note("attribution %-14s %6.2f%% %12.1f ns/%s", b, share, ratio(float64(a.ns[b]), units), unitName)
	}
	o.note("attribution samples %d, cpu %.3fs, shares sum %.4f%%", a.samples, float64(total)/1e9, sum)
	o.check(a.samples > 0, "traced run took no CPU samples")
	o.check(math.Abs(sum-100) < 1e-6, "attribution shares sum to %.6f%%, want 100%%", sum)
}
