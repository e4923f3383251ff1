package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"voxel/internal/sweep"
)

// The cross-flag constraints: -repro and -merge exclude every run flag,
// -merge needs files and nothing else takes them, -checkpoint-every needs
// -checkpoint, and malformed -shard specs are rejected up front.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		set     []string
		shard   string
		args    []string
		want    sweep.Shard
		wantErr string // substring of the error; "" = must succeed
	}{
		{name: "bare run", set: nil},
		{name: "repro alone", set: []string{"repro"}},
		{name: "repro with profiles", set: []string{"repro", "cpuprofile", "memprofile"}},
		{name: "repro with shard", set: []string{"repro", "shard"}, shard: "0/2",
			wantErr: "drop -shard"},
		{name: "repro with checkpoint", set: []string{"repro", "checkpoint"},
			wantErr: "drop -checkpoint"},
		{name: "repro with telemetry and trials", set: []string{"repro", "telemetry", "trials"},
			wantErr: "drop -telemetry, -trials"},
		{name: "merge", set: []string{"merge"}, args: []string{"s0.json", "s1.json"}},
		{name: "merge to checkpoint with exports and profiles", set: []string{"merge", "checkpoint",
			"telemetry-out", "telemetry-csv", "cpuprofile", "memprofile"}, args: []string{"s0.json"}},
		{name: "merge with run flags", set: []string{"merge", "trials", "telemetry", "shard"},
			args: []string{"s0.json"}, wantErr: "drop -shard, -telemetry, -trials"},
		{name: "merge with checkpoint-every", set: []string{"merge", "checkpoint", "checkpoint-every"},
			args: []string{"s0.json"}, wantErr: "drop -checkpoint-every"},
		{name: "merge with repro", set: []string{"merge", "repro"}, args: []string{"s0.json"},
			wantErr: "drop -merge"},
		{name: "merge with no files", set: []string{"merge"}, wantErr: "-merge needs the shard checkpoint files"},
		{name: "files without merge", set: []string{"trials"}, args: []string{"s0.json"},
			wantErr: "only -merge takes files"},
		{name: "checkpoint-every alone", set: []string{"checkpoint-every"},
			wantErr: "does nothing without -checkpoint"},
		{name: "shard ok", set: []string{"shard"}, shard: "1/4",
			want: sweep.Shard{Index: 1, Count: 4}},
		{name: "shard whole sweep", set: []string{"shard"}, shard: "0/1",
			want: sweep.Shard{Index: 0, Count: 1}},
		{name: "shard not i/n", set: []string{"shard"}, shard: "3", wantErr: "not i/n"},
		{name: "shard index not a number", set: []string{"shard"}, shard: "x/4",
			wantErr: "shard index"},
		{name: "shard count zero", set: []string{"shard"}, shard: "0/0",
			wantErr: "must be at least 1"},
		{name: "shard count negative", set: []string{"shard"}, shard: "0/-2",
			wantErr: "must be at least 1"},
		{name: "shard index at count", set: []string{"shard"}, shard: "4/4",
			wantErr: "out of range"},
		{name: "shard index past count", set: []string{"shard"}, shard: "5/4",
			wantErr: "out of range"},
		{name: "shard index negative", set: []string{"shard"}, shard: "-1/4",
			wantErr: "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, f := range tc.set {
				set[f] = true
			}
			got, err := validateFlags(set, tc.shard, tc.args)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got err %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if got != tc.want {
				t.Fatalf("shard = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// A negative count is refused before any trial runs: voxel-sim exits 1 with
// the validation message instead of running the defaults it would be read
// as. The command runs in a child process — this test binary re-executed
// with voxel-sim's arguments after "--".
func TestNegativeFlagExits(t *testing.T) {
	if args := flag.Args(); len(args) > 0 && args[0] == "voxel-sim" {
		os.Args = args
		flag.CommandLine = flag.NewFlagSet(args[0], flag.ExitOnError)
		main()
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestNegativeFlagExits$", "--",
		"voxel-sim", "-trials", "1", "-buffer", "-2", "-segments", "-5", "-queue", "-1").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 ||
		!strings.Contains(string(out), "voxel-sim: exp: buffer segments -2 is negative") {
		t.Fatalf("voxel-sim -buffer -2 exited with %v and printed:\n%s", err, out)
	}
}
