package main

import (
	"bufio"
	"os"
	"strconv"
	"sync"
	"time"

	"histar/internal/vclock"
)

// Spans are recorded by the benchmark's own code, around its calls into each
// layer; the program under test is not instrumented.  They are kept in
// memory and written out when the trial ends.

// span is one timed interval.  Times are nanoseconds since the tracer's
// origin; Parent indexes the same tracer's span slice (-1 for a root).
type span struct {
	Name   nameID
	Start  int64
	End    int64
	Parent int32
	Op     int32
	// Sim is the simulated disk time that elapsed inside the span.
	Sim int64
}

// nameID indexes spanNames.  Spans hold no pointers, so the garbage collector
// never scans the span arrays: tracing must not change how often or how long
// the collector runs under the system being measured.
type nameID uint16

var (
	spanNamesMu sync.Mutex
	spanNames   []string
	spanNameIDs = map[string]nameID{}
)

// internName returns the id of a span name, registering it on first use.
func internName(name string) nameID {
	spanNamesMu.Lock()
	defer spanNamesMu.Unlock()
	id, ok := spanNameIDs[name]
	if !ok {
		id = nameID(len(spanNames))
		spanNames = append(spanNames, name)
		spanNameIDs[name] = id
	}
	return id
}

// spanNameTable returns a copy of the id → name table.
func spanNameTable() []string {
	spanNamesMu.Lock()
	defer spanNamesMu.Unlock()
	return append([]string(nil), spanNames...)
}

// tracer records the spans of one client goroutine, so recording takes no
// lock.  A nil *tracer records nothing: untraced trials pass nil and pay one
// pointer test per call.
type tracer struct {
	t0    time.Time
	clock *vclock.Clock // the simulated disk's clock, or nil when there is no disk
	spans []span
	stack []int32
	op    int32
	// names caches internName per tracer, so recording takes no lock.
	names map[string]nameID
}

// newTracer allocates room for capacity spans and touches all of it, so that
// the page faults of a fresh allocation are taken before the window opens and
// not charged, a few dozen ops apart, to the traced trial.
func newTracer(t0 time.Time, clock *vclock.Clock, capacity int) *tracer {
	spans := make([]span, capacity)
	for i := range spans {
		spans[i].Parent = -1
	}
	return &tracer{t0: t0, clock: clock, spans: spans[:0], op: -1, names: map[string]nameID{}}
}

// nextOp starts a new operation; spans begun afterwards carry its id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span nested in the innermost open one and returns its handle.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id, ok := t.names[name]
	if !ok {
		id = internName(name)
		t.names[name] = id
	}
	s := span{Name: id, Parent: parent, Op: t.op}
	if t.clock != nil {
		s.Sim = -int64(t.clock.Now())
	}
	i := int32(len(t.spans))
	t.stack = append(t.stack, i)
	t.spans = append(t.spans, s)
	t.spans[i].Start = int64(time.Since(t.t0))
	return i
}

// end closes the span begin returned.  Spans close innermost first.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = int64(time.Since(t.t0))
	if t.clock != nil {
		s.Sim += int64(t.clock.Now())
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Count  int
	Durs   []float64 // microseconds, in the order recorded
	SelfUs float64   // total duration minus the part child spans cover
	SimMs  float64   // total simulated device time, children included
}

// summarize groups spans by name.  A span's self time is its duration minus
// the durations of its direct children.
func summarize(tracers []*tracer) map[string]*spanSummary {
	out := make(map[string]*spanSummary)
	names := spanNameTable()
	for _, t := range tracers {
		if t == nil {
			continue
		}
		childNs := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				childNs[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			name := names[s.Name]
			sum := out[name]
			if sum == nil {
				sum = &spanSummary{}
				out[name] = sum
			}
			d := s.End - s.Start
			sum.Count++
			sum.Durs = append(sum.Durs, float64(d)/1e3)
			sum.SelfUs += float64(d-childNs[i]) / 1e3
			sum.SimMs += float64(s.Sim) / 1e6
		}
	}
	return out
}

// writeSpans writes every span as one JSON line: name, start and end in
// nanoseconds since the trial began, the parent span's id (-1 for a root) and
// the operation id.  Ids are unique across the trial's clients.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	const clientStride = 1 << 32
	names := spanNameTable()
	var buf []byte
	for c, t := range tracers {
		if t == nil {
			continue
		}
		base := int64(c) * clientStride
		for i, s := range t.spans {
			parent := int64(-1)
			if s.Parent >= 0 {
				parent = base + int64(s.Parent)
			}
			buf = append(buf[:0], `{"id":`...)
			buf = strconv.AppendInt(buf, base+int64(i), 10)
			buf = append(buf, `,"name":"`...)
			buf = append(buf, names[s.Name]...)
			buf = append(buf, `","start":`...)
			buf = strconv.AppendInt(buf, s.Start, 10)
			buf = append(buf, `,"end":`...)
			buf = strconv.AppendInt(buf, s.End, 10)
			buf = append(buf, `,"parent":`...)
			buf = strconv.AppendInt(buf, parent, 10)
			buf = append(buf, `,"op":`...)
			buf = strconv.AppendInt(buf, base+int64(s.Op), 10)
			buf = append(buf, "}\n"...)
			if _, err := w.Write(buf); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
