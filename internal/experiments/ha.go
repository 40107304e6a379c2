package experiments

import (
	"fmt"

	"rdmamon/internal/cluster"
	"rdmamon/internal/scenario"
	"rdmamon/internal/sim"
)

func init() {
	register("ha", "warm-standby front-ends: a one-shard claim table and epoch fencing under front-end faults",
		func(o Options) *Result { return HA(o).Result() })
}

// HAPoint is one seed's run of a 3-replica HA cluster under a fault
// plan that includes front-end crashes, freezes and witness partitions.
type HAPoint struct {
	Seed                   int64
	FECrash, FEFrz, FEPart int // plan shape (front-end faults)

	Epochs        int     // claim epochs acquired across the fleet
	TakeoverMaxMS float64 // slowest measured primary-fault -> new-epoch handoff
	Fenced        uint64  // requests refused by the claim fence
	NotPrimary    uint64  // fenced replies observed at the clients
	Retargets     uint64  // client rotations to another replica
	Served        uint64  // requests completed end to end
	BackendTasks  int     // agent-side tasks (must stay 0 under RDMA-Sync)

	Violations []string
	ViolationN int

	Fingerprint string // deterministic run digest (H5 replay check)
}

// HAData holds the per-seed results.
type HAData struct {
	Points []HAPoint
}

// HA runs the front-end high-availability harness: for each seed it
// builds a 3-replica RDMA-Sync cluster whose replicas arbitrate one
// claim shard covering every back-end (all shadow-probe, the holder
// alone dispatches), applies a randomized fault plan extended with
// front-end crashes, freezes and witness partitions, drives RUBiS
// load, and checks:
//
//	H1  at most one replica holds a valid claim epoch at any instant
//	    (validity intervals from acquire/renew/depose events must not
//	    overlap across replicas — no split brain);
//	H2  no request is ever routed by a replica whose claim is invalid
//	    at that instant (the epoch fence holds even for a deposed or
//	    frozen-then-thawed primary);
//	H3  a fault hitting the current primary yields a new epoch within
//	    ExpireAfter plus a bounded number of check cycles (warm
//	    standbys make takeover fast);
//	H4  claim epochs are globally monotone (each acquisition uses a
//	    strictly larger epoch than every earlier one);
//	H5  a fixed seed replays bit-identically (checked for the first
//	    seed by running it twice);
//	H6  back-end agents run zero tasks throughout — standby monitoring
//	    rides the same one-sided reads and costs the monitored nodes
//	    nothing.
//
// H1, H2 and H4 are the active-active A1 at one shard and H3 is A2
// (every replica is home to the lone shard, so no VacantGrace), so the
// claim checker shared with -exp aa audits them and reports
// violations under those names; H5 and H6 are checked here.
func HA(o Options) *HAData {
	cp, err := scenario.BuiltinHA().Compile(o.Quick)
	if err != nil {
		// The builtin is covered by the golden tests; a compile failure
		// here is a programming error, not an input error.
		panic(err)
	}
	return haScenario(cp, o)
}

// haScenario runs the HA invariant checker over a compiled scenario —
// the one driver behind both the legacy `-exp ha` flags (via
// BuiltinHA, bit-identical plans) and `-scenario` files with
// `checks: ha`.
func haScenario(cp *scenario.Compiled, o Options) *HAData {
	n := o.Seeds
	if n <= 0 {
		n = cp.Points(0)
	}
	base := cp.BaseSeed(o.Seed)
	d := &HAData{Points: make([]HAPoint, n)}
	forEach(o, n, func(i int) {
		seed := cp.SeedAt(base, i)
		pt := haPoint(cp, seed)
		if i == 0 {
			replay := haPoint(cp, seed)
			if replay.Fingerprint != pt.Fingerprint {
				pt.Violations = append(pt.Violations,
					fmt.Sprintf("H5 determinism: replay of seed %d diverged", seed))
				pt.ViolationN++
			}
		}
		d.Points[i] = pt
	})
	return d
}

func haPoint(cp *scenario.Compiled, seed int64) HAPoint {
	horizon := cp.Horizon

	// Failover (the socket standby) is deliberately off in the builtin:
	// every probe in this experiment is one-sided, so H6 measures the
	// pure cost of two extra shadow monitors — which must be zero.
	c := cluster.New(cp.ClusterConfig(seed, ""))
	plan := cp.Plan(seed)
	c.ApplyFaults(plan)

	ck := newClaimChecker(c, plan)
	ck.install()

	pool := c.StartRUBiS(cp.Clients, cp.Think, seed+11)
	c.Run(horizon)

	// H3: every replica is home to the lone shard, so the reclaim bound
	// carries no VacantGrace.
	claim := c.Cfg.Claim // cluster.New resolved the defaults
	ck.checkOverlaps()
	ck.checkReclaims(horizon, claim.ExpireAfter+reclaimSlack*claim.CheckEvery)

	feCrash := 0
	for _, cr := range plan.Crashes {
		for _, id := range c.FrontEndIDs() {
			if cr.Node == id {
				feCrash++
			}
		}
	}
	fePart := 0
	for _, pa := range plan.Partitions {
		if len(pa.B) == 1 && pa.B[0] == c.Witness.ID {
			fePart++
		}
	}
	pt := HAPoint{
		Seed:    seed,
		FECrash: feCrash, FEFrz: len(plan.Freezes), FEPart: fePart,
		Epochs:        len(ck.intervals),
		TakeoverMaxMS: float64(ck.reclaimMax) / float64(sim.Millisecond),
		Fenced:        ck.totals().shardFenced,
		NotPrimary:    pool.NotPrimary,
		Retargets:     pool.Retargets,
		Served:        c.TotalServed(),
		Violations:    ck.violations,
		ViolationN:    ck.violationN,
	}

	// H6: standby monitoring must cost the back-ends nothing — under
	// RDMA-Sync no agent runs a single task, replicated or not.
	for _, a := range c.Agents {
		if a != nil {
			pt.BackendTasks += a.BackendTasks()
		}
	}
	if pt.BackendTasks != 0 {
		pt.ViolationN++
		pt.Violations = append(pt.Violations,
			fmt.Sprintf("H6 zero-cost: back-end agents run %d tasks under RDMA-Sync", pt.BackendTasks))
	}

	var cycles uint64
	for _, r := range c.FrontEnds {
		cycles += r.Monitor.Cycles
	}
	pt.Fingerprint = fmt.Sprintf("%s cyc=%d tasks=%d", ck.fingerprint(pool), cycles, pt.BackendTasks)
	return pt
}

// Result renders the HA table.
func (d *HAData) Result() *Result {
	r := &Result{
		ID:    "ha",
		Title: "Front-end HA: one-shard claimed primaryship and epoch-fenced dispatch under front-end faults",
		Columns: []string{"seed", "fe(c/f/p)", "epochs", "takeover(ms)", "fenced",
			"notprim", "retgt", "served", "beTasks", "viol"},
	}
	total := 0
	for _, p := range d.Points {
		total += p.ViolationN
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", p.Seed),
			fmt.Sprintf("%d/%d/%d", p.FECrash, p.FEFrz, p.FEPart),
			fmt.Sprintf("%d", p.Epochs),
			f1(p.TakeoverMaxMS),
			fmt.Sprintf("%d", p.Fenced),
			fmt.Sprintf("%d", p.NotPrimary),
			fmt.Sprintf("%d", p.Retargets),
			fmt.Sprintf("%d", p.Served),
			fmt.Sprintf("%d", p.BackendTasks),
			fmt.Sprintf("%d", p.ViolationN),
		})
		for _, v := range p.Violations {
			r.Notes = append(r.Notes, fmt.Sprintf("seed %d: %s", p.Seed, v))
		}
	}
	if total > 0 {
		r.Failed = true
		r.Notes = append(r.Notes, fmt.Sprintf("FAILED: %d invariant violation(s)", total))
	} else {
		r.Notes = append(r.Notes, "all invariants held: at most one epoch-valid dispatcher at any instant, zero routes under an invalid claim, every primary fault handed off within the takeover bound, epochs stayed globally monotone, the first seed replayed bit-identically, and back-end agents ran zero tasks throughout")
	}
	return r
}
