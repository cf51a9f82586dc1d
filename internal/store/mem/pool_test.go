package mem

import "testing"

func TestTierSizing(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 512},
		{512, 512},
		{513, 1024},
		{4096, 4096},
		{4097, 8192},
		{1 << 20, 1 << 20},
		{1<<20 + 1, 1 << 21},
		{1 << 26, 1 << 26},
	}
	p := new(Pool)
	for _, c := range cases {
		b := p.Acquire(c.n)
		if len(b) != c.n {
			t.Fatalf("Acquire(%d): len=%d", c.n, len(b))
		}
		if cap(b) != c.wantCap {
			t.Fatalf("Acquire(%d): cap=%d, want %d", c.n, cap(b), c.wantCap)
		}
		p.Release(b)
	}
}

func TestOversizeFallsBackToMake(t *testing.T) {
	p := new(Pool)
	n := 1<<maxBits + 1
	b := p.Acquire(n)
	if len(b) != n {
		t.Fatalf("oversize Acquire: len=%d, want %d", len(b), n)
	}
	p.Release(b) // must not panic; dropped to GC
}

func TestReuseSameTier(t *testing.T) {
	p := new(Pool)
	b1 := p.Acquire(1000)
	b1[0] = 0x5A
	addr := &b1[:cap(b1)][0]
	p.Release(b1)
	// Same goroutine, no GC in between: sync.Pool's per-P slot hands the
	// buffer straight back.
	b2 := p.Acquire(700)
	if &b2[:cap(b2)][0] != addr {
		t.Skip("pool did not reuse the buffer (GC or scheduling interference)")
	}
	if Poisoning && b2[0] != PoisonByte {
		t.Fatalf("reused buffer not poisoned: got %#x", b2[0])
	}
	p.Release(b2)
}

func TestForeignReleaseDropped(t *testing.T) {
	p := new(Pool)
	// Not a tier capacity: must be silently dropped, not pooled.
	p.Release(make([]byte, 700))
	p.Release(nil)
	// Re-sliced so capacity is no longer the tier size.
	b := p.Acquire(1024)
	p.Release(b[10:20])
}

func TestZeroLength(t *testing.T) {
	p := new(Pool)
	b := p.Acquire(0)
	if len(b) != 0 {
		t.Fatalf("Acquire(0): len=%d", len(b))
	}
	p.Release(b)
}
