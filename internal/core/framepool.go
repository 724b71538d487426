package core

import "sync/atomic"

// Frame pool: size-classed free lists for the byte buffers that carry wire
// envelopes between instances.
//
// Ownership rule (the contract every boundary below follows):
//
//   - The sender allocates a frame from the pool (getFrame), encodes the
//     envelope into it, and transfers ownership to the receiving inbox with
//     push/pushFront/force. From that moment the sender must not touch it.
//   - The receiver (the instance goroutine draining the inbox) owns each
//     delivered frame for the duration of handle() and recycles it
//     (putFrame) afterwards. Decoded values may alias the frame only until
//     handle returns.
//   - Components that retain bytes beyond delivery take owning copies at
//     their boundary: the message log copies on AppendBatch, unaligned
//     captures re-encode records into fresh buffers, checkpoint restore
//     copies captured channel state, and log replay copies entries into
//     pooled frames before force-loading them (msglog retains the original).
//   - Values that outlive delivery (sink output records, operator state)
//     must be decoded with copying methods (Decoder.String, not StringRef)
//     or copied by the operator before retention.
//
// The free lists are typed channels rather than sync.Pool: recycling a
// []byte through a sync.Pool boxes the slice header into an interface (one
// heap allocation per recycle), which would put an allocation right back on
// the path the pool exists to clear. Channel get/put moves only the slice
// header. Lists are bounded, so the resident set is capped and anything
// beyond the cap falls through to the garbage collector.
var framePool = newFramePool()

// frameClasses are the pooled capacity classes. The smallest covers control
// frames and single-record envelopes, the largest covers a full
// Batching.MaxBytes (32 KiB default) record section plus header; larger
// requests fall through to plain allocation.
var frameClasses = [...]int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10}

// frameClassCaps bounds each free list (entries, not bytes): small frames
// are plentiful in flight, large ones rare, keeping the worst-case resident
// pool a few tens of megabytes.
var frameClassCaps = [...]int{4096, 2048, 1024, 512, 256}

type framePoolT struct {
	classes [len(frameClasses)]chan []byte

	// poison scribbles recycled frames before reuse (debug mode): any
	// component that retained an alias past delivery reads garbage
	// immediately instead of corrupting silently.
	poison atomic.Bool

	gets   atomic.Uint64 // getFrame calls served from a class list
	misses atomic.Uint64 // getFrame calls that had to allocate
	puts   atomic.Uint64 // putFrame calls that re-entered a class list
	drops  atomic.Uint64 // putFrame calls dropped (full list or odd size)
}

func newFramePool() *framePoolT {
	p := &framePoolT{}
	for i := range p.classes {
		p.classes[i] = make(chan []byte, frameClassCaps[i])
	}
	return p
}

// getFrame returns an empty frame with capacity >= n, reusing a recycled
// buffer of the smallest fitting class when one is available.
func getFrame(n int) []byte {
	p := framePool
	for i, c := range frameClasses {
		if n <= c {
			select {
			case b := <-p.classes[i]:
				p.gets.Add(1)
				return b[:0]
			default:
			}
			p.misses.Add(1)
			return make([]byte, 0, c)
		}
	}
	return make([]byte, 0, n)
}

// putFrame recycles a frame whose owner is done with it. Any []byte may be
// offered (replayed copies, restored captures); only buffers whose capacity
// exactly matches a size class re-enter the pool — everything getFrame
// hands out does — so a class list never serves a mis-sized buffer. The
// rest, and frames arriving at a full list, are left to the garbage
// collector.
func putFrame(b []byte) {
	p := framePool
	if p.poison.Load() {
		// Scribble every offered frame, pooled or not: an alias retained
		// past the ownership window reads garbage deterministically.
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xDB
		}
	}
	for i, c := range frameClasses {
		if cap(b) == c {
			select {
			case p.classes[i] <- b:
				p.puts.Add(1)
			default:
				p.drops.Add(1)
			}
			return
		}
	}
}

// SetFramePoison toggles poison-on-recycle: recycled frames are overwritten
// with 0xDB before re-entering the pool, so any component that kept an
// alias past its ownership window observes corruption deterministically.
// Returns the previous setting. Test/debug only — it writes every recycled
// byte.
func SetFramePoison(enabled bool) (prev bool) {
	return framePool.poison.Swap(enabled)
}

// FramePoolStats is a snapshot of the process-wide frame pool counters.
type FramePoolStats struct {
	Gets   uint64 // frames served from a free list
	Misses uint64 // frames allocated because the list was empty
	Puts   uint64 // frames recycled into a free list
	Drops  uint64 // frames dropped at recycle (full list or odd size)
}

// ReadFramePoolStats returns the current pool counters.
func ReadFramePoolStats() FramePoolStats {
	p := framePool
	return FramePoolStats{
		Gets:   p.gets.Load(),
		Misses: p.misses.Load(),
		Puts:   p.puts.Load(),
		Drops:  p.drops.Load(),
	}
}
