package main

// oracle.go recomputes the pointer chase in plain Go, with no simulator
// involved: the fill hash defines the array, so every thread's checksum
// follows from the seed and the sizes alone.

// splitmix64 is the mixer the chase program fills its array with.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// chaseFill is the value the owner stores at a[i]: the index of the next hop.
func chaseFill(i, seed, n int64) uint64 {
	return splitmix64(uint64(i)^uint64(seed)) % uint64(n)
}

// chaseStart is the index thread tid reads first.
func chaseStart(tid int, n int64) int64 {
	return int64(splitmix64(uint64(tid)^0xB16) % uint64(n))
}

// chaseArray materialises the filled array.
func chaseArray(s chaseSpec, seed int64) []uint64 {
	n := s.Elems * int64(s.Threads)
	a := make([]uint64, n)
	for i := range a {
		a[i] = chaseFill(int64(i), seed, n)
	}
	return a
}

// chaseOracle walks every thread's chase over a and returns the
// checksum each thread must report.
func chaseOracle(s chaseSpec, a []uint64) []uint64 {
	want := make([]uint64, s.Threads)
	for tid := range want {
		pos := chaseStart(tid, int64(len(a)))
		var check uint64
		for h := 0; h < s.Hops; h++ {
			v := a[pos]
			check ^= v + uint64(h)
			pos = int64(v)
		}
		want[tid] = check
	}
	return want
}

// mismatched lists the threads whose checksum differs from the oracle's.
// A thread that disagrees fails all of its operations.
func mismatched(got, want []uint64) []int {
	var bad []int
	for tid := range want {
		if tid >= len(got) || got[tid] != want[tid] {
			bad = append(bad, tid)
		}
	}
	return bad
}
