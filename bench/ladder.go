package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// ladderRow is one storey of the layer ladder: how many times per op the
// workload used a primitive (a counter delta ÷ ops), what one use costs (its
// probe), and the product — the layer's estimated share of an op.
type ladderRow struct {
	Layer  string  `json:"layer"`
	PerOp  float64 `json:"per_op"`
	UnitUs float64 `json:"unit_us"`
	EstUs  float64 `json:"est_us"`
	// Nested rows cost time that other rows already count (a cold login is
	// made of syscalls; a syscall contains its label checks), so they are
	// shown but left out of the sum.
	Nested bool `json:"nested,omitempty"`
}

// buildLadder multiplies the window's counts by the probes' unit costs.
func buildLadder(a, b counters, ops int, probes map[string]float64) []ladderRow {
	n := float64(ops)
	d := func(after, before uint64) float64 { return float64(after-before) / n }

	entries := d(b.ring.Entries, a.ring.Entries)
	ringGates := d(b.ring.GateCalls, a.ring.GateCalls)
	gates := d(b.gateEnters, a.gateEnters)
	// Every ring entry also records its own syscall, and every Wait one
	// ring_submit; what is left was issued directly.
	direct := d(b.syscalls, a.syscalls) - entries - d(b.ring.Waits, a.ring.Waits) - (gates - ringGates)
	// Only a miss in both caches runs the comparison itself.
	misses := d(b.lcMisses, a.lcMisses)

	row := func(layer string, perOp, unitUs float64, nested bool) ladderRow {
		return ladderRow{Layer: layer, PerOp: perOp, UnitUs: unitUs, EstUs: perOp * unitUs, Nested: nested}
	}
	return []ladderRow{
		row("label.leq", misses, probes["label.leq_ns"]/1e3, true),
		row("kernel.syscall", direct, probes["kernel.syscall_ns"]/1e3, false),
		row("kernel.ring_entry", entries-ringGates, probes["kernel.ring_entry_ns"]/1e3, false),
		row("kernel.gate_enter", gates, probes["kernel.gate_enter_ns"]/1e3, false),
		row("kernel.clone", d(b.snap.Clones, a.snap.Clones), probes["kernel.clone_us"], false),
		row("auth.login", d(b.sess.ColdLogins, a.sess.ColdLogins), probes["auth.login_us"], true),
		row("netsim.frame", d(b.frames, a.frames), probes["netsim.roundtrip_ns"]/2e3, false),
		row("store.put_sync", d(b.st.ObjectSyncs, a.st.ObjectSyncs), probes["store.put_sync_us"], false),
		row("store.checkpoint", d(b.st.Checkpoints, a.st.Checkpoints), probes["store.checkpoint_ms"]*1e3, false),
	}
}

// simRow is the simulated device time spent inside one kind of call.
type simRow struct {
	Kind  string  `json:"kind"`
	Path  string  `json:"path"`
	Calls int     `json:"calls"`
	SimMs float64 `json:"sim_ms"`
	Share float64 `json:"share"`
}

// simPath names the store path a unixlib call kind drives.
func simPath(kind string) string {
	switch kind {
	case "unixlib.fsync", "unixlib.overwrite", "unixlib.pwritev_fsync", "unixlib.bigfile_sync_write":
		return "wal commit + flush"
	case "unixlib.groupsync", "unixlib.unlink_sync":
		return "checkpoint + cleaner"
	case "unixlib.read_uncached":
		return "cold read"
	}
	return "no device work expected"
}

// simByKind splits the window's simulated disk time by the call it elapsed in.
func simByKind(spans map[string]*spanSummary) []simRow {
	var rows []simRow
	total := 0.0
	for name, s := range spans {
		if strings.HasPrefix(name, "unixlib.") && s.SimMs > 0 {
			rows = append(rows, simRow{Kind: name, Path: simPath(name), Calls: s.Count, SimMs: s.SimMs})
			total += s.SimMs
		}
	}
	for i := range rows {
		rows[i].Share = ratio(rows[i].SimMs, total)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SimMs > rows[j].SimMs })
	return rows
}

// selfRow is the measured side of the attribution: the time spent inside the
// spans of one name and not inside their children, per op.  netsim's own
// time, for one, is netsim.send's self time: the send minus the webd.serve
// that ran inside it.
type selfRow struct {
	Span        string  `json:"span"`
	Count       int     `json:"count"`
	SelfUsPerOp float64 `json:"self_us_per_op"`
}

// selfByName lists the window's spans (the probes' excluded) by self time.
func selfByName(spans map[string]*spanSummary, ops int) []selfRow {
	var rows []selfRow
	for name, s := range spans {
		if !strings.HasPrefix(name, "probe.") {
			rows = append(rows, selfRow{Span: name, Count: s.Count, SelfUsPerOp: s.SelfUs / float64(ops)})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfUsPerOp > rows[j].SelfUsPerOp })
	return rows
}

// printLadder writes the traced trial's attribution tables.
func printLadder(w io.Writer, res *trialResult) {
	p50 := res.E2E["p50_us"]
	meanUs := res.WallS * 1e6 / float64(res.Ops)
	fmt.Fprintf(w, "layer ladder (%s, traced trial): count per op x unit cost = estimated us per op\n", res.Workload)
	fmt.Fprintf(w, "  %-20s %12s %12s %12s %8s\n", "layer", "per_op", "unit_us", "est_us", "of_p50")
	sum := 0.0
	for _, r := range res.Ladder {
		note := ""
		if r.Nested {
			note = "  (nested, not summed)"
		} else {
			sum += r.EstUs
		}
		fmt.Fprintf(w, "  %-20s %12.3f %12.4f %12.3f %7.1f%%%s\n", r.Layer, r.PerOp, r.UnitUs, r.EstUs, 100*ratio(r.EstUs, p50), note)
	}
	fmt.Fprintf(w, "  %-20s %38.3f %7.1f%%\n", "sum", sum, 100*ratio(sum, p50))
	fmt.Fprintf(w, "  %-20s %38.3f   (p50_us %.3f, window wall per op %.3f)\n", "unexplained vs p50", p50-sum, p50, meanUs)
	fmt.Fprintf(w, "span self time (%s): measured us per op inside a span and outside its children\n", res.Workload)
	for _, r := range res.SpanSelf {
		fmt.Fprintf(w, "  %-30s %10d spans %12.3f us/op\n", r.Span, r.Count, r.SelfUsPerOp)
	}
	if len(res.SimByKind) == 0 {
		return
	}
	fmt.Fprintf(w, "simulated disk time by call kind (%s)\n", res.Workload)
	for _, r := range res.SimByKind {
		fmt.Fprintf(w, "  %-30s %-26s %8d calls %12.1f ms %6.1f%%\n", r.Kind, r.Path, r.Calls, r.SimMs, 100*r.Share)
	}
}
