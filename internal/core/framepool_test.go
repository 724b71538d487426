package core

import "testing"

func TestFramePoolSizeClasses(t *testing.T) {
	for _, tc := range []struct{ n, wantCap int }{
		{1, 256},
		{256, 256},
		{257, 1 << 10},
		{5000, 16 << 10},
		{64 << 10, 64 << 10},
	} {
		b := getFrame(tc.n)
		if len(b) != 0 || cap(b) != tc.wantCap {
			t.Fatalf("getFrame(%d) = len %d cap %d, want cap %d", tc.n, len(b), cap(b), tc.wantCap)
		}
		putFrame(b)
	}
	// Oversize requests fall through to exact allocation and are not pooled.
	huge := getFrame(1 << 20)
	if cap(huge) != 1<<20 {
		t.Fatalf("oversize frame cap = %d", cap(huge))
	}
	putFrame(huge) // must not panic; dropped to the GC
	// Undersized buffers are ignored at recycle.
	putFrame(make([]byte, 0, 16))
}

func TestFramePoolRecycles(t *testing.T) {
	before := ReadFramePoolStats()
	b := getFrame(512)
	putFrame(b)
	c := getFrame(512)
	putFrame(c)
	after := ReadFramePoolStats()
	if after.Puts <= before.Puts {
		t.Fatalf("puts did not advance: %+v -> %+v", before, after)
	}
	if after.Gets <= before.Gets {
		t.Fatalf("gets did not advance (recycled frame not served): %+v -> %+v", before, after)
	}
}

func TestFramePoisonScribblesRecycledFrames(t *testing.T) {
	prev := SetFramePoison(true)
	defer SetFramePoison(prev)
	b := getFrame(64)
	b = append(b, 1, 2, 3, 4)
	putFrame(b)
	full := b[:cap(b)]
	for i, v := range full {
		if v != 0xDB {
			t.Fatalf("byte %d = %#x after poisoned recycle, want 0xdb", i, v)
		}
	}
}
