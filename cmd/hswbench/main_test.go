package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	ids := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(ids) != len(experimentIDs) {
		t.Fatalf("listed %d ids, want %d", len(ids), len(experimentIDs))
	}
}

func TestSmokeTable1(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "table1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestMissingExp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-exp required") {
		t.Errorf("stderr missing usage hint: %s", errb.String())
	}
}

func TestUnknownExp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "nope"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Errorf("stderr missing diagnosis: %s", errb.String())
	}
}

func TestFigureCSVOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "fig4", "-out", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wrote ") {
		t.Errorf("no CSV written:\n%s", out.String())
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write non-empty pprof
// files for an ordinary run, and an unwritable profile path fails the run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "table1", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (err %v)", p, err)
		}
	}
	bad := filepath.Join(dir, "missing", "cpu.out")
	if code := run([]string{"-exp", "table1", "-cpuprofile", bad}, &out, &errb); code != 1 {
		t.Errorf("unwritable -cpuprofile: exit %d, want 1", code)
	}
	bad = filepath.Join(dir, "missing", "mem.out")
	if code := run([]string{"-exp", "table1", "-memprofile", bad}, &out, &errb); code != 1 {
		t.Errorf("unwritable -memprofile: exit %d, want 1", code)
	}
}
