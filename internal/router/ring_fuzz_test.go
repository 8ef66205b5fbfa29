package router

import (
	"fmt"
	"testing"
)

// FuzzRingChurn checks the consistent-hash property under membership
// churn: adding or removing one replica moves keys only to or from that
// replica, and walking the larger ring past it (OwnerExcluding, the
// failover path) agrees with the ring rebuilt without it. The fuzzer picks
// the membership (a bitmask over eight replica ids), the replica that
// joins or leaves, the virtual-node count and the keys probed.
func FuzzRingChurn(f *testing.F) {
	f.Add(uint8(0b0000_0111), uint8(2), uint8(64), uint64(1))
	f.Add(uint8(0b0000_0001), uint8(0), uint8(1), uint64(0))
	f.Add(uint8(0b1010_1010), uint8(5), uint8(3), uint64(0xdeadbeef))
	f.Add(uint8(0), uint8(7), uint8(0), uint64(1<<63))
	f.Fuzz(func(t *testing.T, members, changed, vnodes uint8, keySeed uint64) {
		var ids []string
		for i := 0; i < 8; i++ {
			if members&(1<<i) != 0 && i != int(changed%8) {
				ids = append(ids, fmt.Sprintf("replica-%d", i))
			}
		}
		x := fmt.Sprintf("replica-%d", changed%8)
		without := NewRing(ids, int(vnodes))
		with := NewRing(append(append([]string(nil), ids...), x), int(vnodes))
		key := keySeed
		for probe := 0; probe < 256; probe++ {
			// splitmix64: spread the probes over the whole key space.
			key += 0x9e3779b97f4a7c15
			k := key
			k = (k ^ k>>30) * 0xbf58476d1ce4e5b9
			k = (k ^ k>>27) * 0x94d049bb133111eb
			k ^= k >> 31
			before, after := without.Owner(k), with.Owner(k)
			if before == x {
				t.Fatalf("key %#x owned by %s on the ring without it", k, x)
			}
			if after != x && after != before {
				t.Fatalf("key %#x moved %s→%s when only %s joined", k, before, after, x)
			}
			if got := with.OwnerExcluding(k, map[string]bool{x: true}); got != before {
				t.Fatalf("key %#x: walking past %s gives %q, the ring without it %q", k, x, got, before)
			}
		}
	})
}
