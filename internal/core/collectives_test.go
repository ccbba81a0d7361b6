package core

import (
	"bytes"
	"fmt"
	"testing"

	"xlupc/internal/transport"
)

func TestAllReduceSum(t *testing.T) {
	for _, shape := range []struct{ threads, nodes int }{
		{4, 1}, {4, 2}, {8, 4}, {12, 3}, {16, 8},
	} {
		shape := shape
		t.Run(fmt.Sprintf("%d-%d", shape.threads, shape.nodes), func(t *testing.T) {
			want := uint64(0)
			for i := 0; i < shape.threads; i++ {
				want += uint64(i + 1)
			}
			mustRun(t, cfg(shape.threads, shape.nodes, transport.GM(), DefaultCache()), func(th *Thread) {
				got := th.AllReduceU64(uint64(th.ID()+1), ReduceSum)
				if got != want {
					t.Errorf("thread %d: sum = %d, want %d", th.ID(), got, want)
				}
			})
		})
	}
}

func TestAllReduceOps(t *testing.T) {
	const threads, nodes = 8, 4
	mustRun(t, cfg(threads, nodes, transport.LAPI(), NoCache()), func(th *Thread) {
		v := uint64(th.ID()*10 + 5)
		if got := th.AllReduceU64(v, ReduceMin); got != 5 {
			t.Errorf("min = %d", got)
		}
		if got := th.AllReduceU64(v, ReduceMax); got != 75 {
			t.Errorf("max = %d", got)
		}
		want := uint64(0)
		for i := 0; i < threads; i++ {
			want ^= uint64(i*10 + 5)
		}
		if got := th.AllReduceU64(v, ReduceXor); got != want {
			t.Errorf("xor = %d, want %d", got, want)
		}
	})
}

func TestAllReduceBackToBack(t *testing.T) {
	// Successive collectives must not bleed state into each other
	// (the representative may race ahead of released waiters).
	mustRun(t, cfg(8, 4, transport.GM(), NoCache()), func(th *Thread) {
		for round := 0; round < 5; round++ {
			v := uint64(th.ID() + round)
			want := uint64(0)
			for i := 0; i < 8; i++ {
				want += uint64(i + round)
			}
			if got := th.AllReduceU64(v, ReduceSum); got != want {
				t.Errorf("round %d thread %d: %d != %d", round, th.ID(), got, want)
			}
		}
	})
}

func TestBroadcast(t *testing.T) {
	for _, root := range []int{0, 3, 7} {
		root := root
		t.Run(fmt.Sprintf("root=%d", root), func(t *testing.T) {
			payload := []byte(fmt.Sprintf("hello from %d", root))
			mustRun(t, cfg(8, 4, transport.GM(), DefaultCache()), func(th *Thread) {
				var in []byte
				if th.ID() == root {
					in = payload
				}
				out := th.Broadcast(root, in)
				if !bytes.Equal(out, payload) {
					t.Errorf("thread %d got %q", th.ID(), out)
				}
			})
		})
	}
}

func TestBroadcastThenReduce(t *testing.T) {
	// Mixed collective sequences share the buffering machinery; make
	// sure epochs do not collide.
	mustRun(t, cfg(8, 2, transport.LAPI(), DefaultCache()), func(th *Thread) {
		seedBytes := th.Broadcast(2, func() []byte {
			if th.ID() == 2 {
				return []byte{42}
			}
			return nil
		}())
		sum := th.AllReduceU64(uint64(seedBytes[0]), ReduceSum)
		if sum != 42*8 {
			t.Errorf("thread %d: sum = %d", th.ID(), sum)
		}
		out := th.Broadcast(5, func() []byte {
			if th.ID() == 5 {
				return []byte{byte(sum % 251)}
			}
			return nil
		}())
		if out[0] != byte(sum%251) {
			t.Errorf("thread %d: second broadcast got %v", th.ID(), out)
		}
	})
}

func TestBroadcastLargePayload(t *testing.T) {
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	mustRun(t, cfg(4, 4, transport.GM(), NoCache()), func(th *Thread) {
		var in []byte
		if th.ID() == 0 {
			in = payload
		}
		out := th.Broadcast(0, in)
		if !bytes.Equal(out, payload) {
			t.Errorf("thread %d large broadcast corrupted", th.ID())
		}
	})
}

func TestBroadcastSingleNode(t *testing.T) {
	mustRun(t, cfg(4, 1, transport.GM(), NoCache()), func(th *Thread) {
		var in []byte
		if th.ID() == 1 {
			in = []byte("smp")
		}
		if got := th.Broadcast(1, in); string(got) != "smp" {
			t.Errorf("thread %d got %q", th.ID(), got)
		}
	})
}

func TestReduceOpString(t *testing.T) {
	if ReduceSum.String() != "sum" || ReduceMin.String() != "min" ||
		ReduceMax.String() != "max" || ReduceXor.String() != "xor" {
		t.Fatal("op names wrong")
	}
	if ReduceOp(9).String() != "op(9)" {
		t.Fatal("unknown op name wrong")
	}
}

func TestCollectiveCostScalesWithNodes(t *testing.T) {
	// A reduction across more nodes takes longer (log factor + wire),
	// sanity-checking that the tree actually spans the machine.
	el := func(nodes int) int64 {
		st := mustRun(t, cfg(nodes, nodes, transport.GM(), NoCache()), func(th *Thread) {
			th.AllReduceU64(1, ReduceSum)
		})
		return int64(st.Elapsed)
	}
	if !(el(16) > el(2)) {
		t.Fatal("16-node reduction not slower than 2-node")
	}
}
