package apps

import (
	"sort"

	"xlupc/internal/core"
	"xlupc/internal/sim"
)

// The integer sort kernel's sizes, test-friendly.
const (
	isKeysPerThread = 128
	isKeyRange      = 1 << 16     // keys are in [0, isKeyRange)
	isCompareCost   = 10 * sim.Ns // modeled time per comparison in the local sort
)

// ISResult reports the sort.
type ISResult struct {
	Total    int64 // keys accounted for after the exchange
	Verified bool  // per-bucket sortedness + global bucket ordering + count
}

// IS is a bucket integer sort in the NAS IS style: every thread
// generates deterministic keys, the key range is cut into THREADS
// equal buckets (bucket b owned by thread b), keys are exchanged with
// one-sided PUTs into slots reserved by remote fetch-and-add — the
// lock-free coordination pattern the runtime's atomics exist for —
// and each thread sorts its bucket locally. Every thread returns the
// same verified result.
func IS(t *core.Thread) ISResult {
	threads := int64(t.Threads())
	perBucket := int64(isKeysPerThread) * threads // worst-case bucket size
	bucketWidth := (isKeyRange + uint64(threads) - 1) / uint64(threads)

	// Shared: the bucket storage and one reservation counter per
	// bucket (both block-distributed so bucket b and its counter live
	// with thread b).
	buckets := t.AllAlloc("is.buckets", perBucket*threads, 8, perBucket)
	counters := t.AllAlloc("is.counters", threads, 8, 1)
	t.Barrier()

	// Generate and scatter keys: reserve a slot in the destination
	// bucket with fetch-and-add, then PUT the key there.
	keys := make([]uint64, isKeysPerThread)
	for i := range keys {
		keys[i] = sim.SplitMix64(uint64(t.ID())*100_003+uint64(i)) % isKeyRange
	}
	for _, k := range keys {
		b := int64(k / bucketWidth)
		if b >= threads {
			b = threads - 1
		}
		slot := t.FetchAdd(counters.At(b), 1)
		t.PutUint64(buckets.At(b*perBucket+int64(slot)), k)
	}
	t.Barrier()

	// Sort the owned bucket locally.
	mine := int64(t.ID())
	count := int64(t.GetUint64(counters.At(mine)))
	local := make([]uint64, count)
	for i := int64(0); i < count; i++ {
		local[i] = t.GetUint64(buckets.At(mine*perBucket + i))
	}
	t.Compute(sim.Time(count) * isCompareCost * 8) // ~ n log n comparisons
	sort.Slice(local, func(i, j int) bool { return local[i] < local[j] })
	for i := int64(0); i < count; i++ {
		t.PutUint64(buckets.At(mine*perBucket+i), local[i])
	}

	// Verify: keys landed in the right bucket, the bucket is sorted,
	// and the global count is preserved.
	ok := true
	loKey := uint64(mine) * bucketWidth
	hiKey := loKey + bucketWidth
	if mine == threads-1 {
		hiKey = isKeyRange
	}
	for i := int64(0); i < count; i++ {
		if local[i] < loKey || local[i] >= hiKey {
			ok = false
		}
		if i > 0 && local[i] < local[i-1] {
			ok = false
		}
	}
	t.Barrier()

	total := int64(t.AllReduceU64(uint64(count), core.ReduceSum))
	allOK := t.AllReduceU64(map[bool]uint64{true: 1, false: 0}[ok], core.ReduceMin)
	verified := allOK == 1 && total == int64(isKeysPerThread)*threads
	return ISResult{Total: total, Verified: verified}
}
