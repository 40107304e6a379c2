package wire

import "testing"

func TestClaimWordRoundTrip(t *testing.T) {
	cases := []struct {
		owner, epoch uint16
		stamp        uint32
	}{
		{0, 0, 0},
		{1, 1, 0},
		{4, 65535, 4294967295},
		{65535, 32768, 7},
	}
	for _, c := range cases {
		w := PackClaimWord(c.owner, c.epoch, c.stamp)
		o, e, s := UnpackClaimWord(w)
		if o != c.owner || e != c.epoch || s != c.stamp {
			t.Fatalf("round trip (%d,%d,%d) -> %x -> (%d,%d,%d)",
				c.owner, c.epoch, c.stamp, w, o, e, s)
		}
		if got := WordEpoch(w); got != c.epoch {
			t.Fatalf("WordEpoch(%x) = %d, want %d", w, got, c.epoch)
		}
		if ClaimVacant(w) != (c.owner == 0) {
			t.Fatalf("ClaimVacant(%x) wrong for owner %d", w, c.owner)
		}
	}
}

func TestClaimRecordRoundTrip(t *testing.T) {
	r := ClaimRecord{Shard: 5, Owner: 2, Epoch: 17, Stamp: 301, GrantNS: 4e9, TTLNS: 3e8}
	enc := r.Encode()
	if len(enc) != ClaimRecordSize {
		t.Fatalf("encoded size %d, want %d", len(enc), ClaimRecordSize)
	}
	got, err := DecodeClaim(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip mismatch: %+v != %+v", got, r)
	}
}

func TestClaimRecordRejectsCorruption(t *testing.T) {
	r := ClaimRecord{Shard: 1, Owner: 1, Epoch: 1, Stamp: 1}
	enc := r.Encode()
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := DecodeClaim(bad); err == nil {
			t.Fatalf("corrupting byte %d went undetected", i)
		}
	}
	if _, err := DecodeClaim(enc[:ClaimRecordSize-1]); err != ErrShort {
		t.Fatalf("short buffer: got %v, want ErrShort", err)
	}
}
