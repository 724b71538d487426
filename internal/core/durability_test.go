package core

import (
	"path/filepath"
	"testing"
	"time"

	"checkmate/internal/chaos"
	"checkmate/internal/metrics"
	"checkmate/internal/objstore"
	"checkmate/internal/wal"
)

// durableEnv rebuilds the standard test env on top of a disk-backed
// object store rooted in dir/blobs.
func durableEnv(t *testing.T, dir string, workers, records int, rate float64) (*testEnv, *JobSpec) {
	t.Helper()
	env, job := buildEnv(t, workers, records, rate)
	store, err := objstore.Open(objstore.Config{
		Dir:        filepath.Join(dir, "blobs"),
		PutLatency: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.store = store
	return env, job
}

func durableCfg(env *testEnv, p Protocol, dir string) Config {
	cfg := env.config(p)
	cfg.Store = env.store
	cfg.Batching = BatchingConfig{MaxRecords: 8}
	cfg.Durability = DurabilityConfig{
		Enabled: true,
		WALDir:  filepath.Join(dir, "wal"),
		Sync:    wal.SyncGroup,
	}
	return cfg
}

// TestCrashRecoveryDurable kills the engine mid-run (a real crash
// boundary: no final WAL flush, no output commit) and restarts a fresh
// engine over the same on-disk state — WAL segments and blob files.
// The restarted engine must cold-recover and finish exactly-once.
func TestCrashRecoveryDurable(t *testing.T) {
	const (
		workers = 2
		records = 8000
		rate    = 20000
	)
	type variant struct {
		name  string
		p     Protocol
		tweak func(*Config)
	}
	variants := []variant{
		{"COOR", nullProto{KindCoordinated, "COOR"}, func(*Config) {}},
		{"UNC", nullProto{KindUncoordinated, "UNC"}, func(*Config) {}},
		{"CIC", nullProto{KindCIC, "CIC"}, func(*Config) {}},
		// Every WAL fsync stalls and the stage is 8 KiB: senders run into
		// the stage bound and block behind the committer, and the kill
		// drops whatever is staged at that moment.
		{"UNC-fsync-stall", nullProto{KindUncoordinated, "UNC"}, func(c *Config) {
			c.Durability.MaxSegmentBytes = 8 << 10
			c.Chaos = chaos.NewInjector(chaos.Plan{
				FsyncStall:    []chaos.Window{{At: 0, For: time.Hour}},
				StallDuration: 2 * time.Millisecond,
			})
		}},
	}
	for _, v := range variants {
		p := v.p
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			env, job := durableEnv(t, dir, workers, records, rate)
			cfg := durableCfg(env, p, dir)
			v.tweak(&cfg)
			eng, err := NewEngine(cfg, job)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}

			// Run until the pipeline is mid-stream AND at least one
			// checkpoint is durable on disk, then pull the plug.
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				if env.recorder.SinkCount() > records/4 && len(env.store.List(metaPrefix)) > 0 {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			if len(env.store.List(metaPrefix)) == 0 {
				t.Fatal("no durable checkpoint metadata appeared before the kill")
			}
			eng.Kill()
			if p.Kind().NeedsLogging() {
				if st := eng.WALStats(); st.Appends == 0 || st.Fsyncs == 0 {
					t.Fatalf("logging protocol wrote no WAL: %+v", st)
				}
			} else if st := eng.WALStats(); st.Appends != 0 {
				t.Fatalf("COOR should not message-log, but WAL has %d appends", st.Appends)
			}

			// "Restart the process": fresh engine, fresh recorder, same
			// broker (the durable source), re-opened disk store and WAL dir.
			env2, job2 := durableEnv(t, dir, workers, records, rate)
			env2.recorder = metrics.NewRecorder(time.Now(), 30*time.Second, time.Second)
			cfg2 := durableCfg(env2, p, dir)
			v.tweak(&cfg2)
			cfg2.Recorder = env2.recorder
			cfg2.Broker = env.broker // topic content survives the crash
			env2.broker = env.broker
			eng2, err := NewEngine(cfg2, job2)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng2.Start(); err != nil {
				t.Fatal(err)
			}
			waitDrained(t, eng2, env2, 30*time.Second)
			eng2.Stop()

			sums, total := collectSums(eng2, workers)
			if want := env.records * 2; total != want {
				t.Fatalf("crash recovery violated exactly-once: total = %d, want %d", total, want)
			}
			for k, v := range sums {
				if v != 2 {
					t.Fatalf("key %d sum = %d after crash recovery", k, v)
				}
			}
		})
	}
}

// TestColdStartFreshDirIsNormalStart pins that enabling durability over
// an empty directory behaves exactly like a fresh start.
func TestColdStartFreshDirIsNormalStart(t *testing.T) {
	dir := t.TempDir()
	env, job := durableEnv(t, dir, 2, 2000, 20000)
	cfg := durableCfg(env, nullProto{KindUncoordinated, "UNC"}, dir)
	eng, err := NewEngine(cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, eng, env, 20*time.Second)
	eng.Stop()
	if _, total := collectSums(eng, 2); total != env.records*2 {
		t.Fatalf("durable fresh run total = %d, want %d", total, env.records*2)
	}
	if st := eng.WALStats(); st.Appends == 0 {
		t.Fatal("durable UNC run never appended to the WAL")
	}
}

// TestCleanRestartDurable stops the engine gracefully and restarts over
// the same directories: the second engine must pick up the durable
// checkpoints rather than reprocessing blindly, and still end
// exactly-once.
func TestCleanRestartDurable(t *testing.T) {
	dir := t.TempDir()
	env, job := durableEnv(t, dir, 2, 4000, 20000)
	cfg := durableCfg(env, nullProto{KindCIC, "CIC"}, dir)
	eng, err := NewEngine(cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, eng, env, 20*time.Second)
	eng.Stop() // graceful: WAL sealed with a final fsync

	env2, job2 := durableEnv(t, dir, 2, 4000, 20000)
	env2.recorder = metrics.NewRecorder(time.Now(), 30*time.Second, time.Second)
	cfg2 := durableCfg(env2, nullProto{KindCIC, "CIC"}, dir)
	cfg2.Recorder = env2.recorder
	cfg2.Broker = env.broker
	env2.broker = env.broker
	eng2, err := NewEngine(cfg2, job2)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Start(); err != nil {
		t.Fatal(err)
	}
	// The first run drained completely, so the restart may have nothing
	// left to process (the recovery line can sit at the very end of the
	// topic): wait for an empty backlog and a settled sink count rather
	// than for fresh output.
	limit := time.Now().Add(20 * time.Second)
	var last uint64
	stable := time.Now()
	for time.Now().Before(limit) {
		if c := env2.recorder.SinkCount(); c != last {
			last = c
			stable = time.Now()
		}
		if eng2.SourceBacklog() == 0 && time.Since(stable) > 300*time.Millisecond {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	eng2.Stop()
	if _, total := collectSums(eng2, 2); total != env.records*2 {
		t.Fatalf("clean durable restart violated exactly-once: total = %d, want %d", total, env.records*2)
	}
}
