package certify

import (
	"repro/internal/machine/hw"
)

// Prime+probe (§2.1's coresident adversary): the attacker controls a
// concurrent thread that can fill public cache sets with its own lines
// (prime), let the victim run, and then time re-accesses to those lines
// (probe). Lines the victim's secret-dependent accesses evicted now
// miss, so probe times image the victim's access pattern — unless the
// hardware confines victim fills to confidential partitions.

// PrimeProbe runs one round: prime the given public addresses on env,
// run the victim (which shares the environment, modeling coresidency),
// then probe. It returns the eviction signature, the attacker's
// signal: for each address in prime order, whether its probe was
// slower than its warm prime. The adversary is public: all of its
// accesses carry the bottom label on both sides, exactly what a
// coresident unprivileged thread can do.
func PrimeProbe(env hw.Env, addrs []uint64, victim func(hw.Env)) []bool {
	bot := env.Lattice().Bot()
	// Prime twice: the first pass loads, the second records the warm
	// (hit) baseline.
	for _, a := range addrs {
		env.Access(hw.Read, a, bot, bot)
	}
	warm := make([]uint64, len(addrs))
	for i, a := range addrs {
		warm[i] = env.Access(hw.Read, a, bot, bot)
	}
	victim(env)
	evicted := make([]bool, len(addrs))
	for i, a := range addrs {
		evicted[i] = env.Access(hw.Read, a, bot, bot) > warm[i]
	}
	return evicted
}

// ConflictAddrs returns n distinct addresses that all map to the same
// set of a cache with the given geometry — the attacker's eviction set
// for one cache set. Addresses start at base and are spaced one full
// cache stride apart.
func ConflictAddrs(base uint64, sets, blockSize, n int) []uint64 {
	stride := uint64(sets * blockSize)
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)*stride
	}
	return out
}

// signatureHash folds an eviction signature into one observation
// symbol (FNV-1a over the bits). Distinct signatures map to distinct
// symbols with overwhelming probability, which is all the MI estimator
// needs — it never interprets the value.
func signatureHash(sig []bool) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range sig {
		v := uint64(0)
		if b {
			v = 1
		}
		h = (h ^ v) * 1099511628211
	}
	return h
}
