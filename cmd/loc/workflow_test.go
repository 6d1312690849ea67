package main

// The workflow file is YAML, which Go's standard library does not read, and
// a workflow that does not parse does not run, so no CI step can report it.
// The mistake this repository has made there is a plain (unquoted) step name
// that YAML reads as something else: one holding ": " is a nested mapping,
// which leaves the file unparsable; one holding " #" is cut at a comment; one
// ending in ":" is a mapping too.  These tests look for exactly that.

import (
	"os"
	"strings"
	"testing"
)

// plainNameFault returns what YAML makes of the unquoted name: value on
// line, when that is not the string it reads as, or "" when it is (or the
// line holds no such value).
func plainNameFault(line string) string {
	v, ok := strings.CutPrefix(strings.TrimLeft(line, " \t-"), "name:")
	if v = strings.TrimSpace(v); !ok || v == "" || strings.ContainsAny(v[:1], `'"|>`) {
		return ""
	}
	switch {
	case strings.Contains(v, ": "):
		return "it holds \": \", which starts a nested mapping"
	case strings.Contains(v, " #"):
		return "it holds \" #\", which starts a comment"
	case strings.HasSuffix(v, ":"):
		return "it ends in \":\", which makes it a mapping"
	}
	return ""
}

// TestWorkflowStepNamesParse fails on any step name in the CI workflow that
// needs quotes and lacks them.
func TestWorkflowStepNamesParse(t *testing.T) {
	b, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	names := 0
	for i, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(strings.TrimLeft(line, " \t-"), "name:") {
			names++
		}
		if fault := plainNameFault(line); fault != "" {
			t.Errorf("ci.yml:%d: an unquoted name, and %s; quote it: %s", i+1, fault, strings.TrimSpace(line))
		}
	}
	if names < 10 {
		t.Fatalf("ci.yml holds %d names; the check reads nothing", names)
	}
}

// TestPlainNameFaultFixture holds the check to the step name that once left
// the workflow unparsable, and to the lines it must let pass.
func TestPlainNameFaultFixture(t *testing.T) {
	for line, bad := range map[string]bool{
		"      - name: test (core-count matrix: every internal/ package at 1, 2 and 4 procs, 3 runs each)":   true,
		"      - name: 'test (core-count matrix: every internal/ package at 1, 2 and 4 procs, 3 runs each)'": false,
		`      - name: "a: quoted name"`:             false,
		"      - name: fuzz smoke (store metadata)":  false,
		"      - name: bench smoke # with a comment": true,
		"      - name: a name ending in a colon:":    true,
		"name: CI":                     false,
		"          name: bench-report": false,
		"      - name:":                false,
		"        run: go test -run 'Name: x' ./...":                                          false,
		"      - name: range records (lfs_sync at N = 1,166, all 64 big-file writes; fails)": false,
	} {
		if got := plainNameFault(line) != ""; got != bad {
			t.Errorf("%q: flagged %v, want %v", line, got, bad)
		}
	}
}
