package core

import (
	"testing"

	"rdmamon/internal/sim"
	"rdmamon/internal/simnet"
	"rdmamon/internal/simos"
	"rdmamon/internal/wire"
)

func claimCfg() ClaimConfig {
	// poll=50ms defaults: CheckEvery=100ms, TTL=300ms, ExpireAfter=500ms,
	// VacantGrace=200ms, HandbackAfter=1s.
	return ClaimConfig{Shards: 4}.WithDefaults(DefaultInterval)
}

func TestClaimConfigDefaultsEnforceSafetyMargin(t *testing.T) {
	c := claimCfg()
	if c.ExpireAfter <= c.TTL {
		t.Fatalf("ExpireAfter %v must exceed TTL %v", c.ExpireAfter, c.TTL)
	}
	// An unsafe explicit config is repaired, not honored.
	bad := ClaimConfig{TTL: 10 * sim.Second, ExpireAfter: sim.Second, CheckEvery: sim.Second}.WithDefaults(0)
	if bad.ExpireAfter < bad.TTL+2*bad.CheckEvery {
		t.Fatalf("sanitizer kept unsafe ExpireAfter %v for TTL %v", bad.ExpireAfter, bad.TTL)
	}
	if bad.Shards != 8 {
		t.Fatalf("default shards = %d, want 8", bad.Shards)
	}
}

// TestClaimHomeMapping pins the home partition: with at least as many
// shards as owners, shard s is home to front-end (s % owners) + 1
// alone; with fewer, every owner me with (me-1) % shards == s % shards
// is home; owners <= 0 makes everyone home.
func TestClaimHomeMapping(t *testing.T) {
	cfg := claimCfg()
	for shard := uint16(0); shard < 8; shard++ {
		for me := uint16(1); me <= 3; me++ {
			c := NewClaim(me, shard, 3, cfg)
			want := int(shard)%3 == int(me)-1
			if c.Home != want {
				t.Fatalf("fe %d shard %d: home = %v, want %v", me, shard, c.Home, want)
			}
		}
	}
	for _, tc := range []struct {
		name           string
		shards, owners int
		home           func(me, shard int) bool
	}{
		{"owners=0", 4, 0, func(int, int) bool { return true }},
		{"shards=1 owners=3", 1, 3, func(int, int) bool { return true }},
		{"shards=2 owners=4", 2, 4, func(me, shard int) bool { return (me-1)%2 == shard }},
	} {
		cfg := ClaimConfig{Shards: tc.shards}.WithDefaults(DefaultInterval)
		owners := max(tc.owners, 3)
		for shard := 0; shard < tc.shards; shard++ {
			for me := 1; me <= owners; me++ {
				c := NewClaim(uint16(me), uint16(shard), tc.owners, cfg)
				if want := tc.home(me, shard); c.Home != want {
					t.Fatalf("%s: fe %d shard %d: home = %v, want %v", tc.name, me, shard, c.Home, want)
				}
			}
		}
	}

	// With owners=0 everyone is home, so a holder never releases its
	// shard toward a home front-end that does not exist.
	c := NewClaim(2, 1, 0, cfg)
	c.Observe(wire.PackClaimWord(wire.ClaimVacantOwner, 0, 0), 0)
	c.ClaimWon(0)
	if c.HandbackDue(cfg.HandbackAfter + sim.Second) {
		t.Fatal("owners=0 holder wants to hand back past HandbackAfter")
	}
}

// TestClaimObservePatience drives the observe rules directly: a home
// front-end bids on vacancy immediately, a foreigner only after
// VacantGrace; an owned-but-stuck word is an orphan after ExpireAfter
// for the home and ExpireAfter+VacantGrace for a foreigner.
func TestClaimObservePatience(t *testing.T) {
	cfg := claimCfg()
	home := NewClaim(1, 0, 2, cfg) // shard 0 % 2 == 0 == me-1
	foreign := NewClaim(2, 0, 2, cfg)

	vacant := wire.PackClaimWord(wire.ClaimVacantOwner, 3, 7) // released at epoch 3
	if !home.Observe(vacant, 0) {
		t.Fatal("home must bid on a vacant word immediately")
	}
	if foreign.Observe(vacant, 0) {
		t.Fatal("foreigner must not bid on first sight of a vacancy")
	}
	if foreign.Observe(vacant, cfg.VacantGrace-1) {
		t.Fatal("foreigner bid before VacantGrace")
	}
	if !foreign.Observe(vacant, cfg.VacantGrace) {
		t.Fatal("foreigner must bid after VacantGrace")
	}
	// The bid fences to epoch 4: releases preserve the epoch.
	if _, swp := foreign.ClaimBid(); wire.WordEpoch(swp) != 4 {
		t.Fatalf("bid epoch = %d, want 4", wire.WordEpoch(swp))
	}

	held := wire.PackClaimWord(2, 5, 9)
	h2 := NewClaim(1, 0, 2, cfg)
	f2 := NewClaim(3, 0, 2, cfg) // not home for shard 0 either
	if h2.Observe(held, 0) || f2.Observe(held, 0) {
		t.Fatal("a live claim must not be bid on at first sight")
	}
	if h2.Observe(held, cfg.ExpireAfter-1) {
		t.Fatal("home expired a claim early")
	}
	if !h2.Observe(held, cfg.ExpireAfter) {
		t.Fatal("home must reclaim an orphan after ExpireAfter")
	}
	if f2.Observe(held, cfg.ExpireAfter) {
		t.Fatal("foreigner must yield the orphan to its home first")
	}
	if !f2.Observe(held, cfg.ExpireAfter+cfg.VacantGrace) {
		t.Fatal("foreigner must adopt the orphan after the extra grace")
	}
	// Any change to the word resets patience.
	if h2.Observe(wire.PackClaimWord(2, 5, 10), cfg.ExpireAfter+sim.Second) {
		t.Fatal("a fresh heartbeat must reset orphan patience")
	}
}

// TestClaimMachineLifecycle walks win -> renew -> handback -> fencing
// through the outcome methods.
func TestClaimMachineLifecycle(t *testing.T) {
	cfg := claimCfg()
	c := NewClaim(2, 1, 2, cfg) // shard 1 % 2 == 1 == me-1: home
	if !c.Home {
		t.Fatal("fe 2 must be home for shard 1 of 2 owners")
	}
	if !c.Observe(wire.PackClaimWord(0, 0, 0), 0) {
		t.Fatal("want immediate bid")
	}
	cmp, swp := c.ClaimBid()
	if cmp != 0 || swp != wire.PackClaimWord(2, 1, 0) {
		t.Fatalf("bid operands %#x -> %#x", cmp, swp)
	}
	c.ClaimWon(10)
	if !c.Valid(10+cfg.TTL-1) || c.Valid(10+cfg.TTL) || c.Epoch() != 1 {
		t.Fatalf("post-win state wrong: %v", c)
	}
	c.RenewWon(200)
	if !c.Valid(200+cfg.TTL-1) || c.Renewals != 1 {
		t.Fatalf("post-renew state wrong: %v", c)
	}
	// Releases zero the owner but keep epoch and stamp.
	rcmp, rswp := c.ReleaseBid()
	if rcmp != wire.PackClaimWord(2, 1, 1) || rswp != wire.PackClaimWord(0, 1, 1) {
		t.Fatalf("release operands %#x -> %#x", rcmp, rswp)
	}
	c.ReleaseWon(300)
	if c.Held() || c.Valid(300) || c.Handbacks != 1 {
		t.Fatalf("post-release state wrong: %v", c)
	}
	// Re-win from the released word: epoch must advance.
	if !c.Observe(rswp, 400) {
		t.Fatal("home must re-bid on its released shard")
	}
	_, swp2 := c.ClaimBid()
	if wire.WordEpoch(swp2) != 2 {
		t.Fatalf("re-bid epoch = %d, want 2", wire.WordEpoch(swp2))
	}
	c.ClaimWon(400)
	// A lost renew fences immediately.
	var fenced bool
	c.OnDepose = func(shard, epoch uint16, now sim.Time) { fenced = shard == 1 && epoch == 2 }
	c.RenewLost(wire.PackClaimWord(1, 3, 0), 500)
	if c.Held() || c.Valid(500) || !fenced || c.Deposals != 1 {
		t.Fatalf("post-deposal state wrong: %v", c)
	}
}

type claimRig struct {
	eng     *sim.Engine
	fab     *simnet.Fabric
	vault   *ClaimVault
	nodes   []*simos.Node
	nics    []*simnet.NIC
	mgrs    []*ClaimManager
	witness *simos.Node
}

func newClaimRig(t *testing.T, fes int, cfg ClaimConfig) *claimRig {
	t.Helper()
	cfg = cfg.WithDefaults(DefaultInterval)
	r := &claimRig{eng: sim.NewEngine(11)}
	r.fab = simnet.NewFabric(r.eng, simnet.Defaults())
	wn := simos.NewNode(r.eng, 100, simos.NodeDefaults())
	wnic := r.fab.Attach(wn)
	r.witness = wn
	r.vault = NewClaimVault(wnic, cfg.Shards)
	for i := 0; i < fes; i++ {
		n := simos.NewNode(r.eng, i+1, simos.NodeDefaults())
		nic := r.fab.Attach(n)
		r.nodes = append(r.nodes, n)
		r.nics = append(r.nics, nic)
		r.mgrs = append(r.mgrs, StartClaimManager(n, nic, 100,
			r.vault.WordKeys(), r.vault.RecKeys(), uint16(i+1), fes, cfg))
	}
	return r
}

// TestClaimManagerConvergesToHomePartition runs three front-ends over
// a four-shard table: the steady state assigns every shard to its home
// front-end, with published records matching the words.
func TestClaimManagerConvergesToHomePartition(t *testing.T) {
	cfg := claimCfg()
	r := newClaimRig(t, 3, cfg)
	r.eng.RunFor(2 * sim.Second)
	now := r.eng.Now()
	for s := 0; s < cfg.Shards; s++ {
		wantOwner := uint16(s%3) + 1
		if got := r.vault.Owner(s); got != wantOwner {
			t.Fatalf("shard %d owner = %d, want home %d", s, got, wantOwner)
		}
		if !r.mgrs[wantOwner-1].Valid(s, now) {
			t.Fatalf("home fe %d does not validly hold shard %d", wantOwner, s)
		}
		rec, err := r.vault.Record(s)
		if err != nil {
			t.Fatalf("shard %d record: %v", s, err)
		}
		if rec.Owner != wantOwner || rec.Shard != uint16(s) {
			t.Fatalf("shard %d record %v does not match word owner %d", s, rec, wantOwner)
		}
	}
	// Exactly one valid holder per shard.
	for s := 0; s < cfg.Shards; s++ {
		holders := 0
		for _, m := range r.mgrs {
			if m.Valid(s, now) {
				holders++
			}
		}
		if holders != 1 {
			t.Fatalf("shard %d has %d valid holders", s, holders)
		}
	}
}

// TestClaimManagerOrphanReclaimAndFence freezes a front-end holding
// claims: survivors must adopt its shards within the reclaim bound,
// and the thawed holder must be fenced (deposed on its stale renew),
// never re-validating into a double-claim.
func TestClaimManagerOrphanReclaimAndFence(t *testing.T) {
	cfg := claimCfg()
	r := newClaimRig(t, 3, cfg)
	r.eng.RunFor(2 * sim.Second)

	victim := 0
	frozeAt := r.eng.Now()
	r.nodes[victim].Freeze()
	bound := cfg.ExpireAfter + cfg.VacantGrace + 4*cfg.CheckEvery
	r.eng.RunFor(bound)
	now := r.eng.Now()
	for s := 0; s < cfg.Shards; s++ {
		owner := r.vault.Owner(s)
		if owner == uint16(victim)+1 {
			t.Fatalf("shard %d still owned by frozen fe after %v", s, bound)
		}
		if owner == 0 {
			t.Fatalf("shard %d left vacant after reclaim bound", s)
		}
		holders := 0
		for i, m := range r.mgrs {
			if i != victim && m.Valid(s, now) {
				holders++
			}
		}
		if holders != 1 {
			t.Fatalf("shard %d has %d valid survivors", s, holders)
		}
	}
	// The frozen holder's validity lapsed before any adoption began.
	for s := 0; s < cfg.Shards; s++ {
		c := r.mgrs[victim].Claims[s]
		if c.Held() && c.ValidUntil() > frozeAt+cfg.TTL {
			t.Fatalf("frozen holder's shard %d validity extended impossibly", s)
		}
	}

	// Thaw: the victim's stale renews lose and fence it; after
	// HandbackAfter the adopted shards drift home again.
	r.nodes[victim].Thaw()
	r.eng.RunFor(4 * cfg.CheckEvery)
	deposals := uint64(0)
	for _, c := range r.mgrs[victim].Claims {
		deposals += c.Deposals
	}
	if deposals == 0 {
		t.Fatal("thawed ex-holder was never fenced")
	}
	r.eng.RunFor(cfg.HandbackAfter + 6*cfg.CheckEvery)
	for s := 0; s < cfg.Shards; s++ {
		if wantHome := uint16(s%3) + 1; wantHome == uint16(victim)+1 {
			if got := r.vault.Owner(s); got != wantHome {
				t.Fatalf("shard %d not handed back to restarted home: owner %d", s, got)
			}
		}
	}
}

// TestClaimManagerSingleShardHandoff is warm standby on a one-shard
// table: one of two front-ends acquires and renews, its host freezes,
// the standby seizes epoch 2 within ExpireAfter plus a few check
// cycles (no VacantGrace: both are home), and the thawed ex-primary is
// fenced on its first renewal.
func TestClaimManagerSingleShardHandoff(t *testing.T) {
	cfg := ClaimConfig{Shards: 1}.WithDefaults(DefaultInterval)
	r := newClaimRig(t, 2, cfg)
	r.eng.RunFor(sim.Second)

	now := r.eng.Now()
	var primary, standby int
	switch {
	case r.mgrs[0].Valid(0, now) && !r.mgrs[1].Claims[0].Held():
		primary, standby = 0, 1
	case r.mgrs[1].Valid(0, now) && !r.mgrs[0].Claims[0].Held():
		primary, standby = 1, 0
	default:
		t.Fatalf("want exactly one primary: %v / %v", r.mgrs[0].Claims[0], r.mgrs[1].Claims[0])
	}
	pc := r.mgrs[primary].Claims[0]
	if pc.Renewals == 0 {
		t.Fatal("primary never renewed")
	}
	rec, err := r.vault.Record(0)
	if err != nil {
		t.Fatalf("claim record: %v", err)
	}
	if rec.Owner != pc.Me || rec.Epoch != pc.Epoch() {
		t.Fatalf("published record %v does not match primary %v", rec, pc)
	}

	frozeAt := r.eng.Now()
	r.nodes[primary].Freeze()
	r.eng.RunFor(cfg.ExpireAfter + 4*cfg.CheckEvery)
	sc := r.mgrs[standby].Claims[0]
	if !sc.Valid(r.eng.Now()) {
		t.Fatalf("standby did not take over: %v", sc)
	}
	if sc.Epoch() != 2 {
		t.Fatalf("takeover epoch = %d, want 2", sc.Epoch())
	}
	if pc.ValidUntil() > frozeAt+cfg.TTL {
		t.Fatal("frozen primary's validity extended impossibly")
	}

	r.nodes[primary].Thaw()
	r.eng.RunFor(4 * cfg.CheckEvery)
	if pc.Held() || pc.Valid(r.eng.Now()) || pc.Deposals != 1 {
		t.Fatalf("thawed ex-primary not fenced: %v (deposals %d)", pc, pc.Deposals)
	}
	if sc.Handbacks != 0 {
		t.Fatal("a one-shard holder must never hand back")
	}
}

// TestClaimManagerWitnessPartition cuts every front-end off from the
// witness: the holder's validity lapses (so it stops dispatching) and
// its renewals fail as transport errors; with the standby partitioned
// too no epoch changes, and on heal the holder revalidates under the
// same epoch.
func TestClaimManagerWitnessPartition(t *testing.T) {
	cfg := ClaimConfig{Shards: 1}.WithDefaults(DefaultInterval)
	r := newClaimRig(t, 2, cfg)
	r.eng.RunFor(sim.Second)
	var pm *ClaimManager
	for _, m := range r.mgrs {
		if m.Valid(0, r.eng.Now()) {
			pm = m
		}
	}
	if pm == nil {
		t.Fatal("no primary")
	}
	epoch := pm.Claims[0].Epoch()

	r.fab.SetFaults(partitionAll{})
	r.eng.RunFor(2 * cfg.ExpireAfter)
	if pm.Valid(0, r.eng.Now()) {
		t.Fatal("partitioned primary must not remain valid")
	}
	if pm.CASErrors == 0 {
		t.Fatal("renewal attempts should be failing")
	}

	r.fab.SetFaults(nil)
	r.eng.RunFor(4 * cfg.CheckEvery)
	if !pm.Valid(0, r.eng.Now()) {
		t.Fatal("healed primary should revalidate")
	}
	if got := pm.Claims[0].Epoch(); got != epoch {
		t.Fatalf("epoch moved across a full partition: %d -> %d", epoch, got)
	}
}

// partitionAll fails every RDMA operation (and delivers channel sends
// normally, which the claim path does not use).
type partitionAll struct{}

func (partitionAll) Channel(from, to, size int) simnet.ChannelVerdict {
	return simnet.ChannelVerdict{}
}
func (partitionAll) RDMA(from, to int) simnet.RDMAVerdict {
	return simnet.RDMAVerdict{Fail: true}
}

// TestClaimManagerDoorbellEconomy checks the two-doorbells-per-round
// contract: word reads and CAS posts are both batched, so doorbells
// grow with rounds, not with shard count.
func TestClaimManagerDoorbellEconomy(t *testing.T) {
	cfg := ClaimConfig{Shards: 16}.WithDefaults(DefaultInterval)
	r := newClaimRig(t, 2, cfg)
	r.eng.RunFor(2 * sim.Second)
	m := r.mgrs[0]
	nic := r.nics[0]
	if m.Rounds == 0 {
		t.Fatal("no rounds ran")
	}
	// <= 2 doorbells per round (read batch + CAS batch; rounds with no
	// due CAS ring once).
	if max := 2 * m.Rounds; nic.DoorbellBatches > max {
		t.Fatalf("doorbells %d exceed 2/round over %d rounds", nic.DoorbellBatches, m.Rounds)
	}
}
