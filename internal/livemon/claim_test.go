package livemon

import (
	"testing"
	"time"

	"rdmamon/internal/core"
	"rdmamon/internal/sim"
	"rdmamon/internal/wire"
)

// claimTestCfg uses short real-time windows: check every 10ms, trust
// for 30ms, treat a word as orphaned after 60ms of silence, leave a
// vacancy to its home for 20ms and hand adopted shards back after
// 200ms. Deadlines below are generous multiples so a loaded CI machine
// does not flake.
func claimTestCfg() core.ClaimConfig {
	return core.ClaimConfig{
		CheckEvery:    sim.Time(10 * time.Millisecond),
		TTL:           sim.Time(30 * time.Millisecond),
		ExpireAfter:   sim.Time(60 * time.Millisecond),
		VacantGrace:   sim.Time(20 * time.Millisecond),
		HandbackAfter: sim.Time(200 * time.Millisecond),
	}
}

// startWitness starts an agent hosting a shards-word claim table.
func startWitness(t *testing.T, shards int) *Agent {
	t.Helper()
	a, err := StartAgent(Config{
		Scheme:     core.RDMASync,
		NodeID:     1,
		Provider:   synthetic(2),
		HostClaims: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func dialClaims(t *testing.T, a *Agent, me uint16, owners int) *ClaimClient {
	t.Helper()
	l, err := DialClaims(a.Addr(), me, owners, claimTestCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func deposals(l *ClaimClient) uint64 {
	_, _, d, _ := l.Counters()
	return d
}

// epoch returns the epoch shard s was last held at by l.
func epoch(l *ClaimClient, s int) uint16 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.claims[s].Epoch()
}

// TestLiveClaimHandoff drives warm standby over real TCP on a one-shard
// table: FE1 acquires the vacant shard, FE2 joins and stands by, FE1
// stalls (Pause — a frozen process), FE2 takes over a new epoch after
// ExpireAfter, and the thawed FE1 is fenced by its failed renewal CAS
// instead of ever believing itself primary again.
func TestLiveClaimHandoff(t *testing.T) {
	leakCheck(t)
	w := startWitness(t, 1)
	fe1 := dialClaims(t, w, 1, 2)
	if fe1.Shards() != 1 {
		t.Fatalf("client drives %d shards, want the witness's 1", fe1.Shards())
	}

	waitFor(t, 5*time.Second, func() bool { return fe1.Valid(0) }, "FE1 to acquire the vacant shard")
	if got := epoch(fe1, 0); got != 1 {
		t.Fatalf("first epoch = %d, want 1", got)
	}
	if owner, ep, _ := wire.UnpackClaimWord(w.ClaimWord(0)); owner != 1 || ep != 1 {
		t.Fatalf("witness word names owner %d epoch %d, want 1/1", owner, ep)
	}
	if rec, err := w.ClaimRecordAt(0); err != nil || rec.Owner != 1 || rec.Epoch != 1 {
		t.Fatalf("published record = %+v, err %v", rec, err)
	}

	fe2 := dialClaims(t, w, 2, 2)
	// FE2 must settle as a standby while FE1 keeps renewing.
	time.Sleep(150 * time.Millisecond)
	if fe2.HeldValid() != 0 {
		t.Fatal("FE2 grabbed a held shard")
	}
	if !fe1.Valid(0) {
		t.Fatal("FE1 lost a shard nobody contested")
	}

	// FE1 stalls: validity lapses on its own, FE2 takes over.
	fe1.Pause()
	waitFor(t, 5*time.Second, func() bool { return fe2.Valid(0) }, "FE2 to take over from the stalled FE1")
	if got := epoch(fe2, 0); got != 2 {
		t.Fatalf("takeover epoch = %d, want 2", got)
	}
	if fe1.Valid(0) {
		t.Fatal("stalled FE1 still claims validity after FE2's takeover")
	}

	// FE1 thaws: its renewal CAS hits epoch 2 and fences it.
	fe1.Resume()
	waitFor(t, 5*time.Second, func() bool { return deposals(fe1) == 1 }, "thawed FE1 to be fenced")
	if fe1.Valid(0) {
		t.Fatal("fenced FE1 claims validity")
	}
	if _, _, fenced := fe1.Errors(); fenced == 0 {
		t.Fatal("the stale renewal should surface as an epoch fence")
	}
	if !fe2.Valid(0) {
		t.Fatal("FE2 lost the shard to the fenced FE1")
	}
	if _, _, _, hb := fe2.Counters(); hb != 0 {
		t.Fatal("a one-shard holder must never hand back")
	}
}

// TestLiveClaimCloseHandsOff: a front-end that dies outright (Close,
// no release) is timed out by the standby.
func TestLiveClaimCloseHandsOff(t *testing.T) {
	leakCheck(t)
	w := startWitness(t, 1)
	fe1 := dialClaims(t, w, 1, 0)
	waitFor(t, 5*time.Second, func() bool { return fe1.Valid(0) }, "FE1 to acquire")
	fe1.Close()

	fe2 := dialClaims(t, w, 2, 0)
	waitFor(t, 5*time.Second, func() bool { return fe2.Valid(0) }, "FE2 to inherit from the dead FE1")
	if got := epoch(fe2, 0); got != 2 {
		t.Fatalf("inherited epoch = %d, want 2", got)
	}
}

// TestLiveClaimTwoShards runs two front-ends over a two-shard table:
// each converges to its home shard, a stalled FE1's shard is adopted
// by FE2, and once FE1 thaws (fenced on the adopted shard) FE2 hands
// the shard back after HandbackAfter and FE1 reclaims it.
func TestLiveClaimTwoShards(t *testing.T) {
	leakCheck(t)
	w := startWitness(t, 2)
	fe1 := dialClaims(t, w, 1, 2)
	fe2 := dialClaims(t, w, 2, 2)

	home := func() bool {
		return fe1.Valid(0) && !fe1.Valid(1) && fe2.Valid(1) && !fe2.Valid(0)
	}
	waitFor(t, 5*time.Second, home, "the home partition")
	for s, want := range []uint16{1, 2} {
		if owner, _, _ := wire.UnpackClaimWord(w.ClaimWord(s)); owner != want {
			t.Fatalf("shard %d owner = %d, want home %d", s, owner, want)
		}
	}

	fe1.Pause()
	waitFor(t, 5*time.Second, func() bool { return fe2.HeldValid() == 2 }, "FE2 to adopt the orphaned shard 0")
	if fe1.Valid(0) {
		t.Fatal("stalled FE1 still valid on an adopted shard")
	}

	fe1.Resume()
	waitFor(t, 5*time.Second, func() bool { return deposals(fe1) >= 1 }, "thawed FE1 to be fenced")
	waitFor(t, 5*time.Second, home, "the adopted shard to go home")
	if _, _, _, hb := fe2.Counters(); hb == 0 {
		t.Fatal("FE2 returned the shard without a handback")
	}
}
