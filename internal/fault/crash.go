package fault

import (
	"fmt"
	"math"
	"sort"

	"xlupc/internal/sim"
)

// CrashConfig sets the node crash/restart schedule. Like the NIC-stall
// windows, crashes are a pure function of (seed, node, window index):
// the schedule is fixed before the run starts and independent of event
// interleaving, so a crashing run is still bit-identical across
// machines and sweep orderings.
type CrashConfig struct {
	// Prob is the per-(node, window) crash probability.
	Prob float64
	// Every is the window length: each node rolls one crash die per
	// window of virtual time.
	Every sim.Time
	// RestartMin and RestartMax bound the restart delay; the actual
	// delay is hash-uniform in [RestartMin, RestartMax]. During the
	// down window the node's NIC is unreachable (inbound packets are
	// dropped on the floor; the reliable layer parks retransmits
	// against the restart instead of burning budget).
	RestartMin, RestartMax sim.Time
	// Horizon bounds the schedule: no crash fires at or after it. A
	// bounded schedule keeps the event heap drainable — the run ends
	// when the program does, not when an endless crash clock does.
	Horizon sim.Time
	// MaxPerNode caps crashes per node within the horizon (0 = no cap
	// beyond the horizon itself).
	MaxPerNode int
}

// Active reports whether the configuration schedules any crash at all.
func (c CrashConfig) Active() bool {
	return c.Prob > 0 && c.Every > 0 && c.Horizon > 0
}

// Validate rejects configurations that would corrupt the hash draws or
// schedule nonsense (NaN probabilities, inverted restart bounds).
func (c CrashConfig) Validate() error {
	if math.IsNaN(c.Prob) || c.Prob < 0 || c.Prob >= 1 {
		return fmt.Errorf("fault: crash probability %v out of [0,1)", c.Prob)
	}
	if c.Prob == 0 {
		return nil
	}
	if c.Every <= 0 {
		return fmt.Errorf("fault: crash window %v must be positive", c.Every)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("fault: crash horizon %v must be positive", c.Horizon)
	}
	if c.RestartMin < 0 || c.RestartMax < c.RestartMin {
		return fmt.Errorf("fault: restart delay bounds [%v, %v] invalid", c.RestartMin, c.RestartMax)
	}
	return nil
}

// CrashEvent is one scheduled node failure: the node goes down at At
// (epoch bump, allocator re-seed, pin table wiped) and its NIC accepts
// traffic again from BackAt on.
type CrashEvent struct {
	Node   int
	At     sim.Time
	BackAt sim.Time
}

// CrashSchedule derives the full, bounded crash schedule for a run:
// every (node, window) pair rolls an independent hash die, a hit
// places the crash uniformly inside the window and draws a restart
// delay in [RestartMin, RestartMax]. Windows overlapped by a previous
// down window are skipped (a node cannot crash while it is already
// down). Events are returned sorted by (At, Node).
func CrashSchedule(seed int64, cfg CrashConfig, nodes int) []CrashEvent {
	if !cfg.Active() {
		return nil
	}
	// Decorrelate from the packet injector and the workload generators:
	// enabling crashes must not reshuffle their draws.
	cs := sim.SplitMix64(uint64(seed) ^ 0xC4A5_11FE5D)
	var evs []CrashEvent
	for node := 0; node < nodes; node++ {
		prevBack := sim.Time(0)
		count := 0
		for w := int64(0); ; w++ {
			winStart := sim.Time(w) * cfg.Every
			if winStart >= cfg.Horizon {
				break
			}
			if cfg.MaxPerNode > 0 && count >= cfg.MaxPerNode {
				break
			}
			if winStart < prevBack {
				continue // still down (or restarting) from the last crash
			}
			h := sim.SplitMix64(cs ^ uint64(node)*0xD1B54A32D192ED03 ^ uint64(w)*0x9E3779B97F4A7C15 ^ tagCrash<<56)
			if unit(h) >= cfg.Prob {
				continue
			}
			at := winStart + 1 + sim.Time(unit(sim.SplitMix64(h^tagCrashAt<<56))*float64(cfg.Every-1))
			if at >= cfg.Horizon {
				continue
			}
			delay := cfg.RestartMin
			if spread := cfg.RestartMax - cfg.RestartMin; spread > 0 {
				delay += sim.Time(unit(sim.SplitMix64(h^tagCrashLen<<56)) * float64(spread))
			}
			if delay < 1 {
				delay = 1 // a restart takes nonzero time
			}
			evs = append(evs, CrashEvent{Node: node, At: at, BackAt: at + delay})
			prevBack = at + delay
			count++
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		return evs[i].Node < evs[j].Node
	})
	return evs
}
