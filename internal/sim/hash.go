package sim

// SplitMix64 is the splitmix64 mixer (Steele, Lea and Flood, 2014): a
// fixed bijection of x's bits. Every seeded draw and workload hash in the
// tree is built on it, so a run's data is a pure function of its
// configuration and seed, whatever the thread count.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
