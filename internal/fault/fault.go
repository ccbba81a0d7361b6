// Package fault implements deterministic fault injection for the
// simulated fabric: per-packet drop/corrupt/duplicate/delay decisions
// and per-node NIC-stall windows, all pure functions of (run seed,
// packet sequence) — so a faulty run is still a pure function of
// (config, seed) and bit-identical across machines, preserving the
// simulator's determinism contract.
//
// The injector holds no mutable state. Every hazard decision is an
// independent hash draw keyed by the packet's global injection ordinal
// (the fabric's message counter, itself deterministic), and the stall
// schedule is keyed by (node, window index). Retransmissions are new
// injections with new ordinals, so they face independent hazards —
// exactly like fresh packets on a real lossy wire.
package fault

import "xlupc/internal/sim"

// Config sets the hazard rates. All probabilities are per packet and
// independent; a zero Config injects nothing (the reliable-delivery
// layer can still be exercised alone).
type Config struct {
	// Drop is the probability a packet vanishes on the wire.
	Drop float64
	// Corrupt is the probability a packet arrives with a payload that
	// fails the receiving NIC's integrity check. The receiver discards
	// it, so a corruption behaves like a drop that consumed wire and
	// arrival-path resources.
	Corrupt float64
	// Duplicate is the probability a packet is delivered twice (the
	// second copy trails the first by a hash-derived lag of up to
	// DelayMax).
	Duplicate float64
	// Delay is the probability a packet incurs extra wire latency,
	// uniform in (0, DelayMax].
	Delay    float64
	DelayMax sim.Time

	// NIC stalls: virtual time is divided into windows of StallEvery;
	// in each window a node's NIC stalls with probability StallProb
	// for a hash-derived duration up to StallMax (arrivals during the
	// stall are held until it clears). StallEvery <= 0 disables
	// stalls. StallMax should not exceed StallEvery; longer stalls
	// bleed into the next window and are honoured for one window only.
	StallEvery sim.Time
	StallProb  float64
	StallMax   sim.Time
}

// Active reports whether the configuration injects any hazard at all.
func (c Config) Active() bool {
	return c.Drop > 0 || c.Corrupt > 0 || c.Duplicate > 0 ||
		(c.Delay > 0 && c.DelayMax > 0) ||
		(c.StallEvery > 0 && c.StallProb > 0 && c.StallMax > 0)
}

// Decision is the injector's verdict for one packet. A dropped packet
// renders the other fields moot.
type Decision struct {
	Drop      bool
	Corrupt   bool
	Duplicate bool
	Delay     sim.Time // extra wire latency (0 = none)
	DupDelay  sim.Time // lag of the duplicate copy behind the original
}

// Injector decides hazards. It is immutable after New; methods are
// pure functions, safe to call from any simulation context.
type Injector struct {
	seed uint64
	cfg  Config
}

// New returns an injector for the given run seed and hazard rates.
func New(seed int64, cfg Config) *Injector {
	// Decorrelate from other consumers of the run seed (workload
	// generators, eviction tie-breaks) so enabling faults does not
	// implicitly reshuffle them.
	return &Injector{seed: sim.SplitMix64(uint64(seed) ^ 0xFA017_1E5D), cfg: cfg}
}

// Config returns the injector's hazard rates.
func (in *Injector) Config() Config { return in.cfg }

// Hazard tags keep the per-packet draws independent of each other.
const (
	tagDrop uint64 = iota + 1
	tagCorrupt
	tagDuplicate
	tagDelay
	tagDelayLen
	tagDupLag
	tagStall
	tagStallLen
	tagCrash
	tagCrashAt
	tagCrashLen
)

// draw returns a uniform [0,1) variate for (packet seq, hazard tag).
func (in *Injector) draw(seq, tag uint64) float64 {
	return unit(sim.SplitMix64(in.seed ^ seq*0x9E3779B97F4A7C15 ^ tag<<56))
}

// Decide returns the hazards applied to the packet with the given
// injection ordinal. Nil-safe: a nil injector decides nothing.
func (in *Injector) Decide(seq uint64) Decision {
	if in == nil {
		return Decision{}
	}
	c := in.cfg
	var d Decision
	if c.Drop > 0 && in.draw(seq, tagDrop) < c.Drop {
		d.Drop = true
		return d
	}
	if c.Corrupt > 0 && in.draw(seq, tagCorrupt) < c.Corrupt {
		d.Corrupt = true
	}
	if c.Duplicate > 0 && in.draw(seq, tagDuplicate) < c.Duplicate {
		d.Duplicate = true
		d.DupDelay = 1 + sim.Time(in.draw(seq, tagDupLag)*float64(c.DelayMax))
	}
	if c.Delay > 0 && c.DelayMax > 0 && in.draw(seq, tagDelay) < c.Delay {
		d.Delay = 1 + sim.Time(in.draw(seq, tagDelayLen)*float64(c.DelayMax))
	}
	return d
}

// StallClear reports when a packet arriving at the node at time t can
// actually be accepted: t itself when the NIC is up, or the end of the
// stall window covering t. A pure function of (seed, node, window), so
// every packet observes the same schedule. Nil-safe.
func (in *Injector) StallClear(node int, t sim.Time) sim.Time {
	if in == nil {
		return t
	}
	c := in.cfg
	if c.StallEvery <= 0 || c.StallProb <= 0 || c.StallMax <= 0 || t < 0 {
		return t
	}
	clear := t
	// A window's stall can bleed past its end when StallMax exceeds
	// StallEvery, so the previous window is consulted too.
	w := int64(t / c.StallEvery)
	for _, k := range []int64{w - 1, w} {
		if k < 0 {
			continue
		}
		h := sim.SplitMix64(in.seed ^ uint64(node)*0xD1B54A32D192ED03 ^ uint64(k)*0x9E3779B97F4A7C15 ^ tagStall<<56)
		if unit(h) >= c.StallProb {
			continue
		}
		dur := 1 + sim.Time(unit(sim.SplitMix64(h^tagStallLen<<56))*float64(c.StallMax))
		if end := sim.Time(k)*c.StallEvery + dur; end > clear {
			clear = end
		}
	}
	return clear
}

// Mix folds the given values into one well-mixed 64-bit hash. The crash
// orchestrator derives the restarted allocator's origin from
// (seed, node, epoch) with it, keeping relocation a pure function of
// the run configuration.
func Mix(vals ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h = sim.SplitMix64(h ^ v*0xD1B54A32D192ED03)
	}
	return h
}

// unit maps a 64-bit hash to a uniform [0,1) float.
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }
