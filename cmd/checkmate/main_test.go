package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"checkmate"
)

// parseArgs binds a fresh flag set into a zero RunConfig and parses args.
func parseArgs(t *testing.T, args ...string) (checkmate.RunConfig, *cliFlags, *flag.FlagSet) {
	t.Helper()
	var cfg checkmate.RunConfig
	fs := flag.NewFlagSet("checkmate", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cli := bindFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return cfg, cli, fs
}

// TestFlagNamesAndDefaults pins the command's 51 flags and their defaults.
func TestFlagNamesAndDefaults(t *testing.T) {
	want := map[string]string{
		"query": "q1", "protocol": "COOR", "workers": "4", "rate": "20000",
		"duration": "6s", "failure-at": "0s", "hot": "0", "interval": "0s",
		"window": "0s", "slide": "0s", "seed": "1", "mst": "false",
		"netcost": "0", "semantics": "exactly-once", "policy": "",
		"straggler": "0s", "gc": "false", "store-failure-rate": "0",
		"output": "none", "compress": "false", "delta": "false",
		"scope": "false", "batch": "0", "batch-bytes": "0",
		"batch-linger": "0", "spill": "false", "spill-max-mb": "0",
		"spill-max-entries": "0", "spill-dir": "", "durable": "false",
		"wal-dir": "", "wal-sync": "group", "scenario": "",
		"scenarios": "false", "bench-scenarios": "", "cluster": "0",
		"placement": "", "fail-worker": "0", "fail-domain": "",
		"rack-size": "0", "fail-count": "0", "fail-interval": "0s",
		"local-cache": "false", "cpus": "0", "cpuprofile": "",
		"memprofile": "", "mutexprofile": "", "blockprofile": "",
		"trace": "", "http": "", "check-trace": "",
	}
	if len(want) != 51 {
		t.Fatalf("table lists %d flags, want 51", len(want))
	}
	_, _, fs := parseArgs(t)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags and defaults:\n got %v\nwant %v", got, want)
	}
}

// TestRunFlagsBindIntoRunConfig sets every run flag to a non-default value
// and checks each lands in its RunConfig field.
func TestRunFlagsBindIntoRunConfig(t *testing.T) {
	cfg, cli, _ := parseArgs(t,
		"-query", "q3", "-protocol", "CIC", "-workers", "3", "-rate", "1234",
		"-duration", "2s", "-failure-at", "700ms", "-hot", "0.3",
		"-interval", "150ms", "-window", "400ms", "-slide", "100ms",
		"-seed", "9", "-netcost", "8", "-semantics", "at-least-once",
		"-straggler", "5us", "-gc", "-store-failure-rate", "0.05",
		"-output", "transactional", "-compress", "-delta", "-scope",
		"-batch", "16", "-batch-bytes", "4096", "-batch-linger", "3",
		"-spill", "-spill-max-mb", "5", "-spill-max-entries", "77",
		"-spill-dir", "/spill", "-durable", "-wal-dir", "/durable",
		"-wal-sync", "always", "-cluster", "5", "-placement", "colocate",
		"-fail-worker", "2", "-fail-domain", "rack", "-rack-size", "3",
		"-fail-count", "4", "-fail-interval", "300ms", "-local-cache",
		"-http", ":0",
	)
	want := checkmate.RunConfig{
		Config: checkmate.EngineConfig{
			Protocol:            checkmate.CIC(),
			Workers:             3,
			CheckpointInterval:  150 * time.Millisecond,
			NetWorkFactor:       8,
			Semantics:           checkmate.AtLeastOnce,
			StragglerDelay:      5 * time.Microsecond,
			CheckpointGC:        true,
			Output:              checkmate.OutputTransactional,
			CompressCheckpoints: true,
			DeltaCheckpoints:    true,
			Batching:            checkmate.BatchingConfig{MaxRecords: 16, MaxBytes: 4096, LingerTicks: 3},
			Cluster: checkmate.ClusterConfig{
				Workers: 5, Policy: checkmate.PlacementColocate, LocalCache: true,
			},
			Seed: 9,
		},
		Query:                "q3",
		Rate:                 1234,
		Duration:             2 * time.Second,
		FailureAt:            700 * time.Millisecond,
		FailWorker:           2,
		FailDomain:           "rack",
		FailRackSize:         3,
		FailInterval:         300 * time.Millisecond,
		FailCount:            4,
		HotRatio:             0.3,
		Window:               400 * time.Millisecond,
		Slide:                100 * time.Millisecond,
		StoreFailureRate:     0.05,
		AnalyzeRollbackScope: true,
		DurableDir:           "/durable",
		HTTPAddr:             ":0",
	}
	want.StateSpill.Enabled = true
	want.StateSpill.Dir = "/spill"
	want.StateSpill.MaxResidentBytes = 5 << 20
	want.StateSpill.MaxOverlayEntries = 77
	want.Durability.Enabled = true
	want.Durability.Sync = "always"

	got, wantV := reflect.ValueOf(cfg), reflect.ValueOf(want)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if name == "Config" {
			continue
		}
		if !reflect.DeepEqual(got.Field(i).Interface(), wantV.Field(i).Interface()) {
			t.Errorf("%s = %v, want %v", name, got.Field(i).Interface(), wantV.Field(i).Interface())
		}
	}
	gotE, wantE := reflect.ValueOf(cfg.Config), reflect.ValueOf(want.Config)
	for i := 0; i < gotE.NumField(); i++ {
		if !reflect.DeepEqual(gotE.Field(i).Interface(), wantE.Field(i).Interface()) {
			t.Errorf("Config.%s = %v, want %v", gotE.Type().Field(i).Name,
				gotE.Field(i).Interface(), wantE.Field(i).Interface())
		}
	}
	if *cli != (cliFlags{}) {
		t.Errorf("run flags leaked into the command flags: %+v", *cli)
	}
}

// TestPolicyNeedsUNC checks -policy swaps the trigger policy into UNC and
// is refused for every other protocol instead of silently replacing it.
func TestPolicyNeedsUNC(t *testing.T) {
	for _, tc := range []struct {
		protocol, policy, wantName, wantErr string
	}{
		{"UNC", "", "UNC", ""},
		{"CIC", "", "CIC", ""},
		{"UNC", "fixed", "UNC(fixed)", ""},
		{"UNC", "events=500", "UNC(events=500)", ""},
		{"CIC", "fixed", "", "UNC only"},
		{"COOR", "events=500", "", "UNC only"},
		{"UNC", "bogus", "", "unknown policy"},
	} {
		cfg, cli, _ := parseArgs(t, "-protocol", tc.protocol, "-policy", tc.policy)
		err := applyPolicy(&cfg, cli.policy)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("-protocol %s -policy %s: err = %v, want %q", tc.protocol, tc.policy, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("-protocol %s -policy %s: %v", tc.protocol, tc.policy, err)
		} else if got := cfg.Protocol.Name(); got != tc.wantName {
			t.Errorf("-protocol %s -policy %s runs %s, want %s", tc.protocol, tc.policy, got, tc.wantName)
		}
	}
}

// TestBadFlagValuesRejected checks the typed flags refuse unknown names.
func TestBadFlagValuesRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "XYZ"}, {"-semantics", "twice"}, {"-output", "sometimes"},
		{"-spill-max-mb", "lots"}, {"-wal-sync", "sometimes"},
		{"-placement", "bogus"}, {"-placement", "explicit"},
	} {
		var cfg checkmate.RunConfig
		fs := flag.NewFlagSet("checkmate", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		bindFlags(fs, &cfg)
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v parsed without error", args)
		}
	}
}
