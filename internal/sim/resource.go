package sim

// Resource is a FIFO server pool with fixed capacity, modelling
// contended hardware: CPU cores, a NIC's injection port, a DMA engine.
// Processes Acquire a slot, hold it for some service time, and Release
// it; excess acquirers queue in arrival order.
//
// Release may be called from kernel callbacks as well as processes
// (it never blocks), which lets asynchronous protocol steps free
// hardware they held. Kernel callbacks acquire via AcquireC.
type Resource struct {
	k *Kernel
	lazyName
	ws        string // memoized park diagnostic, built on first queued acquire
	capacity  int
	inUse     int
	queue     []resWaiter
	queueHead int

	// Accounting.
	acquires  int64
	totalWait Duration
	busyUntil Time // last time utilization was accumulated
	busyTime  Duration
}

// resWaiter is one queued acquirer: what the slot is granted to (a
// process's resume func or a callback alike) and when it queued.
type resWaiter struct {
	fn    func()
	since Time
}

// NewResource returns a resource with the given capacity (number of
// slots that may be held simultaneously). Capacity must be positive.
func NewResource(k *Kernel, name string, capacity int) *Resource {
	return NewResourceIdx(k, name, -1, "", capacity)
}

// NewResourceIdx is NewResource with an index-derived name (prefix +
// idx + suffix, rendered only when diagnostics ask for it) for the
// per-node hardware a machine builds by the hundred.
func NewResourceIdx(k *Kernel, prefix string, idx int, suffix string, capacity int) *Resource {
	r := &Resource{k: k, lazyName: lazyName{prefix, idx, suffix}, capacity: capacity}
	if capacity <= 0 {
		panic("sim: resource capacity must be positive: " + r.Name())
	}
	return r
}

func (r *Resource) parkState() string {
	if r.ws == "" {
		r.ws = "acquire " + r.Name()
	}
	return r.ws
}

// Capacity returns the number of slots.
func (r *Resource) Capacity() int { return r.capacity }

// InUse reports the number of currently held slots.
func (r *Resource) InUse() int { return r.inUse }

func (r *Resource) accumulate() {
	r.busyTime += Duration(r.inUse) * (r.k.now - r.busyUntil)
	r.busyUntil = r.k.now
}

func (r *Resource) queueLen() int { return len(r.queue) - r.queueHead }

// enqueue files fn behind the acquirers already waiting; Release grants
// it the slot.
func (r *Resource) enqueue(fn func()) {
	r.acquires++
	r.queue = append(r.queue, resWaiter{fn, r.k.now})
}

func (r *Resource) popWaiter() resWaiter {
	w := r.queue[r.queueHead]
	r.queue[r.queueHead] = resWaiter{}
	r.queueHead++
	if r.queueHead == len(r.queue) {
		r.queue = r.queue[:0]
		r.queueHead = 0
	}
	return w
}

// TryAcquire takes a slot if one is free and nobody is queued for it,
// reporting whether it did: the admission test of every acquire form.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && r.queueLen() == 0 {
		r.accumulate()
		r.acquires++
		r.inUse++
		return true
	}
	return false
}

// Acquire blocks p until a slot is available and takes it.
func (r *Resource) Acquire(p *Proc) {
	resume := p.resumer()
	if r.TryAcquire() {
		return
	}
	r.enqueue(resume)
	p.park(r.parkState())
	// The releasing side transferred the slot to us: inUse unchanged.
}

// AcquireC takes a slot on behalf of a kernel callback: fn runs —
// holding the slot — as soon as one is available, immediately when the
// resource is free, otherwise as a kernel callback when a Release
// grants it (FIFO with process acquirers). fn must not block; the slot
// is held until a matching Release.
func (r *Resource) AcquireC(fn func()) {
	if r.TryAcquire() {
		fn()
		return
	}
	r.enqueue(fn)
}

// AcquireCont is AcquireC for a continuation-mode thread: a queued
// acquire also records what the thread is blocked on, for deadlock
// diagnostics. (The state string goes stale once fn runs, which is
// harmless: diagnostics only inspect blocked conts.)
func (r *Resource) AcquireCont(ct *Cont, fn func()) {
	if r.TryAcquire() {
		fn()
		return
	}
	ct.block(r.parkState())
	r.enqueue(fn)
}

// Release frees a slot, handing it to the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.Name())
	}
	if r.queueLen() > 0 {
		w := r.popWaiter()
		r.totalWait += r.k.now - w.since
		r.k.wake(w.fn)
		return // slot transferred; inUse unchanged
	}
	r.accumulate()
	r.inUse--
}

// Use acquires a slot, holds it for service time d, and releases it.
// This is the common "get served" pattern.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// ResourceStats is a snapshot of a resource's accounting counters.
type ResourceStats struct {
	Acquires  int64
	TotalWait Duration // time acquirers spent queued
	BusyTime  Duration // integral of slots-held over time
}

// Stats returns the resource's accounting counters as of now.
func (r *Resource) Stats() ResourceStats {
	r.accumulate()
	return ResourceStats{Acquires: r.acquires, TotalWait: r.totalWait, BusyTime: r.busyTime}
}
