package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro"
)

// TestSubcommands runs command lines in-process and checks their report,
// their exit status and, for failures, the sentinel and the usage text.
func TestSubcommands(t *testing.T) {
	const last13 = "  #13 {0,1,2,3,4,5,6,7} c0=16 [16, 8, 35000]\n"
	for _, tc := range []struct {
		args   string
		code   int
		is     error    // a sentinel the error must wrap
		want   []string // substrings of stdout
		suffix string   // the end of stdout
		stderr string   // a substring of what exitCode reports
	}{
		{args: "placements -machine amd -vcpus 16",
			want: []string{"important placements for 16 vCPUs: 13\n"}, suffix: last13},
		{args: "placements -machine amd -vcpus 16 -packings",
			want: []string{last13 + "surviving packings: 5\n"}, suffix: "  [{0,1,2,3,4,5,6,7}]\n"},
		{args: "placements -machine intel -vcpus 24",
			want: []string{"important placements for 24 vCPUs: 7\n"}, suffix: "  #7 {0,1,2,3} c0=24 [24, 4]\n"},
		{args: "placements -vcpus 17", code: 1, is: numaplace.ErrInfeasible},
		{args: "placements -machine bogus", code: 2, stderr: `unknown machine "bogus"`},
		{args: "pack -workload nope", code: 2, stderr: `unknown workload "nope"`},
		{args: "-only fig9", code: 2, stderr: "table1, counts, fig1, fig3, fig4, fig5, table2"},
		{args: "foo", code: 2, stderr: `unknown subcommand "foo"`},
		{args: "placements extra", code: 2, stderr: `unexpected argument "extra"`},
		{args: "train -trees 0", code: 2, stderr: "-trees 0: a forest needs at least one tree"},
		{args: "train -trees -1", code: 2, stderr: "-trees -1: a forest needs at least one tree"},
		{args: "train -vcpus -1", code: 2, stderr: "-vcpus -1: a container needs a positive vCPU count"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), strings.Fields(tc.args), &stdout)
			if code := exitCode(err, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (err %v)", code, tc.code, err)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("err %v does not wrap %v", err, tc.is)
			}
			out := stdout.String()
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("stdout lacks %q:\n%s", w, out)
				}
			}
			if !strings.HasSuffix(out, tc.suffix) {
				t.Errorf("stdout does not end in %q:\n%s", tc.suffix, out)
			}
			if tc.code == 2 {
				if out != "" {
					t.Errorf("a usage error printed a report:\n%s", out)
				}
				if !strings.Contains(stderr.String(), tc.stderr) || !strings.Contains(stderr.String(), usage()) {
					t.Errorf("stderr lacks %q or the usage text:\n%s", tc.stderr, stderr.String())
				}
			}
		})
	}
}

// TestTrainWritesLoadableModel runs the train subcommand end to end: it
// reports the observed pair and where it wrote the model, and the file it
// wrote loads and saves back to the same bytes.
func TestTrainWritesLoadableModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"train", "-machine", "intel", "-trees", "5", "-out", path}, &stdout); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"intel-xeon-e7-4830v3, 24 vCPUs: observe placements #1 and #7\n",
		"model written to " + path + "\n",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := numaplace.LoadPredictor(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := pred.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Errorf("the loaded model saves %d bytes that differ from the %d written", again.Len(), len(saved))
	}
}

// TestQuickGolden holds the full reproduction at -quick to the output
// recorded in testdata/quick.golden, with one worker (GOMAXPROCS 1) and at
// the host's default.
func TestQuickGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	host := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(host)
	for _, workers := range []int{1, host} {
		runtime.GOMAXPROCS(workers)
		var out bytes.Buffer
		err := run(context.Background(), []string{"-quick"}, &out)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(got), len(wantLines)) {
			if got[i] != wantLines[i] {
				t.Fatalf("workers %d: line %d is\n%q\nwant\n%q", workers, i+1, got[i], wantLines[i])
			}
		}
		if len(got) != len(wantLines) {
			t.Fatalf("workers %d: %d lines, want %d", workers, len(got), len(wantLines))
		}
	}
}
