// Package splitmix is the repository's seeded randomness source: a pure
// hash of its inputs, so a draw depends only on the seed and a sequence
// number and never on global math/rand state or goroutine scheduling.
package splitmix

// Mix64 hashes the given words with splitmix64 finalization.
func Mix64(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = mix(h)
	}
	return h
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
