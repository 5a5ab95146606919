package main

import (
	"bytes"
	"context"
	"errors"
	"os"
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

// TestQuickGolden holds the full reproduction at -quick to the output
// recorded in testdata/quick.golden, with one worker and at the default
// parallelism.
func TestQuickGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		prev := numaplace.SetParallelism(workers)
		var out bytes.Buffer
		err := run(context.Background(), []string{"-quick"}, &out)
		numaplace.SetParallelism(prev)
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
