package flight

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"xlupc/internal/sim"
)

// Record is the JSONL wire form of one event: what WriteJSONL emits
// and what post-mortem tooling (and the dump-parsing tests) decode.
type Record struct {
	T     int64  `json:"t"` // virtual time, picoseconds
	Node  int    `json:"node"`
	Kind  string `json:"kind"`
	Class string `json:"class,omitempty"`
	Src   int32  `json:"src"`
	Dst   int32  `json:"dst"`
	Seq   uint64 `json:"seq"`
	Arg   int64  `json:"arg"`
}

// jsonLine renders one event as a single JSON object. The fields are
// all numbers or identifier strings from fixed tables, so the encoding
// is a plain Sprintf — no reflection, no escaping concerns.
func jsonLine(node int, e Event) string {
	var sb strings.Builder
	sb.Grow(128)
	sb.WriteString(`{"t":`)
	sb.WriteString(strconv.FormatInt(int64(e.T), 10))
	sb.WriteString(`,"node":`)
	sb.WriteString(strconv.Itoa(node))
	sb.WriteString(`,"kind":"`)
	sb.WriteString(e.Kind.String())
	sb.WriteString(`"`)
	if cl := e.Class.String(); cl != "" {
		sb.WriteString(`,"class":"`)
		sb.WriteString(cl)
		sb.WriteString(`"`)
	}
	sb.WriteString(`,"src":`)
	sb.WriteString(strconv.FormatInt(int64(e.Src), 10))
	sb.WriteString(`,"dst":`)
	sb.WriteString(strconv.FormatInt(int64(e.Dst), 10))
	sb.WriteString(`,"seq":`)
	sb.WriteString(strconv.FormatUint(e.Seq, 10))
	sb.WriteString(`,"arg":`)
	sb.WriteString(strconv.FormatInt(e.Arg, 10))
	sb.WriteString("}")
	return sb.String()
}

// tagged pairs an event with the node whose ring held it, for the
// cross-node interleave.
type tagged struct {
	node int
	idx  int // position within the node's tail, for stable ties
	ev   Event
}

// interleave merges the last tail events of each listed node into one
// sequence ordered by (virtual time, node, ring position) — the order a
// human replays a failure in.
func (r *Recorder) interleave(nodes []int, tail int) []tagged {
	var all []tagged
	for _, n := range nodes {
		for i, ev := range r.Tail(n, tail) {
			all = append(all, tagged{node: n, idx: i, ev: ev})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].ev.T != all[j].ev.T {
			return all[i].ev.T < all[j].ev.T
		}
		if all[i].node != all[j].node {
			return all[i].node < all[j].node
		}
		return all[i].idx < all[j].idx
	})
	return all
}

// normNodes resolves the node selection: nil or empty means every node,
// and duplicates/out-of-range entries are cleaned so error-path callers
// can pass whatever the failure named.
func (r *Recorder) normNodes(nodes []int) []int {
	if len(nodes) == 0 {
		nodes = make([]int, r.nodes)
		for i := range nodes {
			nodes[i] = i
		}
		return nodes
	}
	seen := make(map[int]bool, len(nodes))
	var out []int
	for _, n := range nodes {
		if n >= 0 && n < r.nodes && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// WriteJSONL writes the last tail events of each listed node (all nodes
// when the list is empty) as JSON Lines, interleaved by virtual time —
// one self-contained JSON object per line, nothing else.
func (r *Recorder) WriteJSONL(w io.Writer, nodes []int, tail int) error {
	for _, tg := range r.interleave(r.normNodes(nodes), tail) {
		if _, err := io.WriteString(w, jsonLine(tg.node, tg.ev)+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// tailLine renders one event for the human-readable interleave.
func tailLine(node int, e Event) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%12v  node%-3d %-16s", e.T, node, e.Kind)
	if cl := e.Class.String(); cl != "" {
		fmt.Fprintf(&sb, " %-3s", cl)
	} else {
		sb.WriteString("    ")
	}
	if e.Src >= 0 && e.Dst >= 0 {
		fmt.Fprintf(&sb, " %d->%d", e.Src, e.Dst)
	} else if e.Src >= 0 {
		fmt.Fprintf(&sb, " node %d", e.Src)
	}
	switch e.Kind {
	case KindSend, KindRecv, KindDrop, KindCorrupt, KindDuplicate:
		fmt.Fprintf(&sb, " seq=%d bytes=%d", e.Seq, e.Arg)
	case KindDelay:
		fmt.Fprintf(&sb, " seq=%d extra=%v", e.Seq, sim.Time(e.Arg))
	case KindStall, KindCrashDrop:
		fmt.Fprintf(&sb, " seq=%d", e.Seq)
	case KindAck, KindDupSuppress:
		fmt.Fprintf(&sb, " seq=%d", e.Seq)
	case KindRetransmit:
		fmt.Fprintf(&sb, " seq=%d attempt=%d", e.Seq, e.Arg)
	case KindPark:
		fmt.Fprintf(&sb, " seq=%d until=%v", e.Seq, sim.Time(e.Arg))
	case KindRetryFail:
		fmt.Fprintf(&sb, " seq=%d attempts=%d UNDELIVERABLE", e.Seq, e.Arg)
	case KindStaleNack:
		fmt.Fprintf(&sb, " epoch=%d", e.Seq)
	case KindCacheInval:
		fmt.Fprintf(&sb, " key=%d entries=%d", e.Seq, e.Arg)
	case KindCoalFlush:
		fmt.Fprintf(&sb, " frame=%d ops=%d", e.Seq, e.Arg)
	case KindPinEvict:
		fmt.Fprintf(&sb, " tag=%d bytes=%d", e.Seq, e.Arg)
	case KindCrash:
		fmt.Fprintf(&sb, " epoch=%d back_at=%v", e.Seq, sim.Time(e.Arg))
	case KindRestart:
		fmt.Fprintf(&sb, " epoch=%d", e.Seq)
	default:
		fmt.Fprintf(&sb, " seq=%d arg=%d", e.Seq, e.Arg)
	}
	return sb.String()
}

// WriteTail writes the human-readable failure tail: the last tail
// events of each listed node (all when empty), interleaved by virtual
// time with one line per event.
func (r *Recorder) WriteTail(w io.Writer, nodes []int, tail int) error {
	nodes = r.normNodes(nodes)
	merged := r.interleave(nodes, tail)
	var hdr strings.Builder
	fmt.Fprintf(&hdr, "flight recorder tail: last %d events/node, nodes", tail)
	for i, n := range nodes {
		if i > 0 {
			hdr.WriteString(",")
		}
		fmt.Fprintf(&hdr, " %d", n)
	}
	fmt.Fprintf(&hdr, " (%d events)\n", len(merged))
	if _, err := io.WriteString(w, hdr.String()); err != nil {
		return err
	}
	for _, tg := range merged {
		if _, err := io.WriteString(w, tailLine(tg.node, tg.ev)+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteDump writes the combined failure dump: the JSONL records, then a
// blank line, then the human tail with every line '#'-prefixed — so the
// whole dump stays machine-parseable (every line starting with '{' is a
// JSON object) while remaining readable in a terminal or CI log. A
// recorder without rings writes nothing.
func (r *Recorder) WriteDump(w io.Writer, nodes []int, tail int) error {
	if r.rings == nil {
		return nil
	}
	if err := r.WriteJSONL(w, nodes, tail); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	var sb strings.Builder
	if err := r.WriteTail(&sb, nodes, tail); err != nil {
		return err
	}
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		if _, err := io.WriteString(w, "# "+line+"\n"); err != nil {
			return err
		}
	}
	return nil
}
