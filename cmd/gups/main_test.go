package main

import (
	"bytes"
	"strings"
	"testing"
)

// A sized flag whose value in bytes or sim-ns leaves int64 exits 2 with
// a message naming the flag, instead of running a wrapped-around size
// (-ws 17179869185 GB is 2^64 + 1 GB, which wraps to 1 GB).
func TestRejectsOverflowingSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-ws", "17179869185", "-hot", "0"},
		{"-ws", "-17179869185"},
		{"-hot", "8589934592"},
		{"-shift", "8589934592"},
		{"-warm", "9223372037"},
		{"-dur", "9223372037"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("gups %s: exit %d, want 2 (stdout %q)", strings.Join(args, " "), code, stdout.String())
		}
		if !strings.Contains(stderr.String(), args[0]) {
			t.Errorf("gups %s: stderr %q does not name %s", strings.Join(args, " "), stderr.String(), args[0])
		}
	}
}

// Values that fit run: a small run exits 0, and the largest working
// set whose byte count fits passes the overflow check and is refused by
// gups.Config.Validate instead, for its page count.
func TestValidSizesRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mgr", "dram", "-ws", "8", "-hot", "1", "-shift", "1", "-warm", "1", "-dur", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "GUPS: ") || !strings.Contains(stdout.String(), "shifted 1 GB") {
		t.Errorf("stdout %q lacks the score or the shift", stdout.String())
	}
	stderr.Reset()
	if code := run([]string{"-ws", "8589934591"}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "PageID") {
		t.Fatalf("-ws 8589934591: exit %d, stderr %q; want 2 and Validate's PageID message", code, stderr.String())
	}
}
