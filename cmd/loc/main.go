// Command loc reproduces the Section 4.1 code-size inventory: it counts the
// lines of Go in each subsystem of this reproduction and groups them into
// the paper's trusted-kernel components versus the untrusted user-level
// library and applications, printing a table alongside the paper's numbers.
//
// It is also the budget gate for the trusted base: the paper's argument is a
// *small* kernel, so the trusted subsystems' total is held under
// trustedBudget and the command exits non-zero when it is exceeded.
package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var groups = map[string]string{
	"internal/label":    "trusted kernel: label algebra",
	"internal/kernel":   "trusted kernel: objects + system calls",
	"internal/btree":    "trusted kernel: B+-trees",
	"internal/wal":      "trusted kernel: write-ahead log",
	"internal/store":    "trusted kernel: single-level store",
	"internal/disk":     "simulated hardware: disk",
	"internal/netsim":   "simulated hardware: network",
	"internal/vclock":   "simulated hardware: clock",
	"internal/unixlib":  "untrusted library: Unix emulation",
	"internal/netd":     "untrusted library: network daemon",
	"internal/auth":     "application: authentication",
	"internal/clamav":   "application: ClamAV + wrap",
	"internal/vpn":      "application: VPN isolation",
	"internal/webd":     "application: web services",
	"internal/baseline": "evaluation: Linux/OpenBSD baseline model",
	"bench":             "evaluation: benchmark harness",
	"cmd":               "tools: loc, wrap",
	"examples":          "examples",
}

// trusted lists the subsystems that make up the trusted computing base (the
// paper's kernel); trustedBudget caps their combined non-blank, non-test
// lines.  Raising the constant is the visible, reviewable act of growing the
// trusted base.
var trusted = map[string]bool{
	"internal/label": true, "internal/kernel": true, "internal/btree": true,
	"internal/wal": true, "internal/store": true,
}

const trustedBudget = 9200

func countLines(dir string) (code, tests int) {
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		n := 0
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) != "" {
				n++
			}
		}
		if strings.HasSuffix(path, "_test.go") {
			tests += n
		} else {
			code += n
		}
		return nil
	})
	return code, tests
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	fmt.Println("Code-size inventory (cf. paper Section 4.1: 15,200 lines of C kernel,")
	fmt.Println("~10,000 lines of Unix library, 110-line wrap, 58/188/233-line auth parts)")
	fmt.Println()
	fmt.Printf("%-48s %10s %10s\n", "subsystem", "code LoC", "test LoC")
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var totalCode, totalTests, trustedCode int
	for _, dir := range keys {
		code, tests := countLines(filepath.Join(root, dir))
		totalCode += code
		totalTests += tests
		if trusted[dir] {
			trustedCode += code
		}
		fmt.Printf("%-48s %10d %10d\n", groups[dir]+" ("+dir+")", code, tests)
	}
	fmt.Printf("%-48s %10d %10d\n", "TOTAL", totalCode, totalTests)
	fmt.Printf("\ntrusted base (the \"trusted kernel\" rows): %d code LoC, budget %d\n", trustedCode, trustedBudget)
	if trustedCode > trustedBudget {
		fmt.Fprintf(os.Stderr, "loc: trusted base is %d lines over its budget of %d; shrink it or raise trustedBudget in cmd/loc\n",
			trustedCode-trustedBudget, trustedBudget)
		os.Exit(1)
	}
}
