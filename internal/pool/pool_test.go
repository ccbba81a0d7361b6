package pool

import (
	"strings"
	"testing"
)

type rec struct {
	n    int
	next *rec
}

// A recycled record comes back from Get (LIFO); under the poison build
// it never does, and is zeroed instead.
func TestFreeReuse(t *testing.T) {
	var p Free[rec]
	a := p.Get()
	a.n = 7
	p.Put(a)
	b := p.Get()
	if Poison {
		if b == a {
			t.Fatal("poison build reused a recycled record")
		}
		if a.n != 0 {
			t.Fatalf("recycled record not zeroed: %+v", *a)
		}
		return
	}
	if b != a || b.n != 7 {
		t.Fatalf("Get after Put = %p (n=%d), want the recycled %p as left", b, b.n, a)
	}
}

// Live is free for a live record; under the poison build it panics on
// a recycled one, and so does a second Put.
func TestFreeLive(t *testing.T) {
	var p Free[rec]
	a := p.Get()
	p.Live(a)
	p.Put(a)
	if !Poison {
		p.Live(a) // no bookkeeping outside the poison build
		return
	}
	for name, use := range map[string]func(){
		"used after it was recycled": func() { p.Live(a) },
		"recycled twice":             func() { p.Put(a) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, name) {
					t.Errorf("got panic %q, want one naming %q", msg, name)
				}
			}()
			use()
		}()
	}
}

// Bytes hands out buffers of the asked length from power-of-two
// classes up to 4 MiB, recycles them by class, and lets larger ones go.
func TestBytes(t *testing.T) {
	var p Bytes
	for _, c := range []struct{ n, cap int }{{1, 8}, {8, 8}, {9, 16}, {100, 128}, {4096, 4096}, {4097, 8192}, {4 << 20, 4 << 20}, {4<<20 + 1, 4<<20 + 1}} {
		b := p.Get(c.n)
		if len(b) != c.n || cap(b) != c.cap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", c.n, len(b), cap(b), c.n, c.cap)
		}
	}
	b := p.Get(24)
	b[0] = 1
	p.Put(b)
	again := p.Get(20)
	if Poison {
		if &again[0] == &b[0] {
			t.Fatal("poison build reused a recycled buffer")
		}
		if b[0] != 0xdb {
			t.Fatalf("recycled buffer not overwritten: %#x", b[0])
		}
		return
	}
	if &again[0] != &b[0] || len(again) != 20 {
		t.Fatalf("Get(20) after Put of a 32-byte-class buffer did not reuse it")
	}
	p.Put(make([]byte, 24)) // cap 24 is no class of ours: dropped
	if n := len(p.class[classOf(24)]); n != 0 {
		t.Fatalf("a foreign buffer joined the pool (%d in class)", n)
	}
	big := p.Get(3 << 20)
	p.Put(big)
	p.Put(p.Get(4<<20 + 1)) // above the largest class: dropped
	if again := p.Get(4 << 20); &again[0] != &big[0] {
		t.Fatal("Get(4 MiB) after Put of a 3 MiB request's buffer did not reuse it")
	}
	for c := range p.class {
		if n := len(p.class[c]); n != 0 {
			t.Fatalf("class %d holds %d buffers after every one was taken back", c, n)
		}
	}
}
