package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestExamplesRun builds every examples/* program once, with the go command
// that runs this test (go test puts its own GOROOT/bin first on PATH), then
// runs each one from an empty directory: each must exit 0.
func TestExamplesRun(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join("..", "..")
	bin := t.TempDir()
	build := exec.Command(goCmd, "build", "-o", bin+string(filepath.Separator), "./examples/...")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	dirs, err := os.ReadDir(filepath.Join(root, "examples"))
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		ran++
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		run := exec.CommandContext(ctx, filepath.Join(bin, d.Name()))
		run.Dir = t.TempDir()
		out, err := run.CombinedOutput()
		cancel()
		if err != nil {
			t.Errorf("examples/%s: %v\n%s", d.Name(), err, out)
		}
	}
	if ran == 0 {
		t.Fatal("no example ran")
	}
}
