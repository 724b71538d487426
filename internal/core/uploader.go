package core

import (
	"sync"
	"time"

	"checkmate/internal/recovery"
	"checkmate/internal/statestore"
	"checkmate/internal/trace"
	"checkmate/internal/wire"
)

// The asynchronous snapshot pipeline: takeCheckpoint (and the unaligned
// first-marker path) runs only the cheap synchronous *capture* phase on the
// processing goroutine — scalars are encoded, the keyed backend is frozen
// as a copy-on-write view — and hands an uploadJob to the hosting worker's
// uploader. The uploader goroutine then *materializes* the blob
// (serializes the capture, assembles the checkpoint layout, compresses)
// and uploads it, reporting to the coordinator once durable.
//
// One uploader goroutine runs per cluster worker (a bounded pool, replacing
// the former goroutine-per-checkpoint spawn), and each instance's jobs land
// on its own worker's FIFO queue — so the blobs of one instance, and in
// particular the segments of one base-plus-delta chain, always materialize
// and upload strictly in chain-sequence order.

// uploadJob is one captured checkpoint awaiting materialization and upload.
type uploadJob struct {
	it *instance
	// capture is the frozen keyed-state view to materialize off-thread; nil
	// when the operator has no keyed backend.
	capture *statestore.Capture
	// chainLen is the length of the base-plus-delta chain this segment
	// completes, for keyed-snapshot accounting; 0 when the instance has no
	// keyed backend.
	chainLen int
	// state holds everything of the checkpoint blob after the keyed
	// segment: instance scalars, dedup/controller/operator state and the
	// channel-state section. Owned by the job.
	state *wire.Encoder
	meta  recovery.Meta
	// walLSN is the WAL position captured with the snapshot (durable
	// runs of logging protocols only): the uploader blocks on the
	// log-before-checkpoint barrier at this LSN before reporting, so a
	// checkpoint never becomes part of a recovery line while an append
	// it depends on is still waiting for its fsync.
	walLSN uint64
	// syncDur is the synchronous capture time the checkpoint already spent
	// on its instance goroutine. The duration reported to the coordinator
	// is syncDur plus the uploader's active time (materialize + compress +
	// upload) — the checkpoint's own cost, deliberately excluding FIFO
	// queue wait behind other checkpoints of the same worker, which the
	// former goroutine-per-checkpoint model did not have either.
	syncDur time.Duration
	// enqNS is the run-clock instant the job entered its worker's FIFO
	// (tracing runs only; 0 otherwise). The uploader turns it into the
	// ckpt.queue_wait span — the wait the reported duration excludes.
	enqNS int64
}

// uploadQueue is the FIFO of one worker's uploader goroutine.
type uploadQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*uploadJob
	closed bool
}

func newUploadQueue() *uploadQueue {
	q := &uploadQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job. Jobs pushed after close are still processed: the
// queue only ever closes after every producing instance goroutine exited.
func (q *uploadQueue) push(j *uploadJob) {
	q.mu.Lock()
	q.jobs = append(q.jobs, j)
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until a job is available or the queue is closed and drained.
func (q *uploadQueue) pop() *uploadJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.jobs) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.jobs) == 0 {
		return nil
	}
	j := q.jobs[0]
	q.jobs[0] = nil
	q.jobs = q.jobs[1:]
	return j
}

// close marks the queue finished; the uploader drains what is left and
// exits. Call only after the producing instances stopped.
func (q *uploadQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// runUploader is the per-worker uploader goroutine: it materializes and
// persists checkpoints in FIFO order until the queue is closed and empty.
// tk is the worker's uploader trace track (nil when tracing is off).
func (w *world) runUploader(q *uploadQueue, tk *trace.Track) {
	defer w.uploadWG.Done()
	var lastEnd int64
	for {
		j := q.pop()
		if j == nil {
			return
		}
		if tk != nil && j.enqNS > 0 {
			// The FIFO wait: enqueue → pop. Clamp the span's start to the
			// previous job's end so the track stays a proper tree — the
			// clamped-off portion is the wait behind that job, which its
			// own spans already depict. The full wait rides in Arg (ns).
			now := j.it.eng.cfg.Trace.Now()
			start := j.enqNS
			if start < lastEnd {
				start = lastEnd
			}
			tk.SpanAt("ckpt.queue_wait", j.meta.Round, uint64(now-j.enqNS), start, now)
		}
		j.it.processUpload(j, tk)
		if tk != nil {
			lastEnd = j.it.eng.cfg.Trace.Now()
		}
	}
}

// enqueueUpload hands a finished capture to the hosting worker's uploader.
func (it *instance) enqueueUpload(job *uploadJob) {
	job.enqNS = it.eng.cfg.Trace.Now()
	it.w.up[it.worker].push(job)
}

// depth reports the number of jobs queued (live /metrics gauge).
func (q *uploadQueue) depth() int {
	q.mu.Lock()
	n := len(q.jobs)
	q.mu.Unlock()
	return n
}

// processUpload materializes one checkpoint blob and persists it: the
// asynchronous half of a checkpoint. Transient store errors are retried
// under the engine's shared RetryPolicy (an un-uploaded checkpoint simply
// never joins a recovery line, so giving up is safe); an abandoned chain
// segment forces the instance's next keyed snapshot to start a fresh full
// base, and retry exhaustion flips the engine into degraded mode (see
// chaosplane.go).
func (it *instance) processUpload(job *uploadJob, tk *trace.Track) {
	rec := it.eng.cfg.Recorder
	round := job.meta.Round
	procStart := time.Now()
	matStart := procStart
	ts := tk.Begin()
	var seg []byte
	if job.capture != nil {
		segEnc := wire.NewEncoder(make([]byte, 0, job.capture.EstimatedBytes()+16))
		job.capture.MaterializeTo(segEnc)
		job.capture.Release()
		seg = segEnc.Bytes()
	}
	// Assemble the blob layout: the keyed segment first, length-prefixed,
	// then the state section.
	enc := wire.NewEncoder(make([]byte, 0, len(seg)+job.state.Len()+8))
	enc.Bytes2(seg)
	enc.Raw(job.state.Bytes())
	blob := enc.Bytes()
	if job.chainLen > 0 {
		rec.AddKeyedSnapshot(len(seg), job.chainLen)
	}
	rec.RecordMaterializeDuration(time.Since(matStart))
	tk.Span("ckpt.materialize", round, uint64(len(blob)), ts)

	key := job.meta.SelfKey()
	var err error
	if it.eng.cfg.CompressCheckpoints {
		ts = tk.Begin()
		if blob, err = flateCompress(blob); err != nil {
			rec.Note("checkpoint compression %s failed: %v", key, err)
			it.abandonChainBlob()
			return
		}
		tk.Span("ckpt.compress", round, uint64(len(blob)), ts)
	}
	if it.eng.degraded.Load() {
		// Degraded mode sheds uploads without retrying: the store is known
		// to be out, and burning the full backoff schedule per queued job
		// would stall the worker's FIFO (and teardown's drain) for nothing.
		// An un-uploaded checkpoint simply never joins a recovery line.
		it.eng.uploadsShed.Add(1)
		it.abandonChainBlob()
		return
	}
	uploadStart := time.Now()
	ts = tk.Begin()
	err = it.eng.retry.Do("ckpt.put", func() error {
		return it.eng.cfg.Store.Put(key, blob)
	})
	if err != nil {
		rec.Note("checkpoint upload %s abandoned: %v", key, err)
		it.abandonChainBlob()
		it.eng.enterDegraded("checkpoint upload retries exhausted")
		return
	}
	tk.Span("ckpt.upload", round, uint64(len(blob)), ts)
	if it.eng.cache != nil {
		// The uploader's worker keeps the blob in local memory: a
		// recovery that leaves this worker alive restores from here
		// instead of the object store.
		it.eng.cache.Put(it.worker, key, blob)
	}
	if it.eng.cfg.Durability.Enabled {
		// Log-before-checkpoint barrier: the WAL must be synced
		// past every append this checkpoint covers before the
		// checkpoint can anchor a recovery line. This is where
		// the pipelined group-commit append path pays its (one,
		// amortized) fsync wait.
		if it.eng.dlog != nil {
			ts = tk.Begin()
			if berr := it.eng.dlog.Barrier(job.walLSN); berr != nil {
				rec.Note("checkpoint %s wal barrier failed: %v", key, berr)
				it.abandonChainBlob()
				return
			}
			tk.Span("ckpt.wal_barrier", round, job.walLSN, ts)
		}
		// The metadata blob makes the checkpoint discoverable by
		// a cold restart. It must be durable before the
		// coordinator can anchor anything on this checkpoint —
		// a crash between blob and meta leaves an unreferenced
		// blob (harmless), never a dangling meta.
		ts = tk.Begin()
		if merr := it.eng.persistMeta(job.meta); merr != nil {
			rec.Note("checkpoint metadata persist %s failed: %v", key, merr)
			it.abandonChainBlob()
			it.eng.enterDegraded("checkpoint metadata retries exhausted")
			return
		}
		tk.Span("ckpt.meta", round, job.meta.Ref.Seq, ts)
	}
	rec.RecordUploadDuration(time.Since(uploadStart))
	ts = tk.Begin()
	it.eng.coord.report(job.meta, job.syncDur+time.Since(procStart))
	tk.Span("ckpt.report", round, job.meta.Ref.Seq, ts)
}
