package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartTrace("x")
	if sp != nil {
		t.Fatalf("nil tracer StartTrace = %v, want nil", sp)
	}
	// Every span method must be a no-op on nil.
	c := sp.StartChild("y", Str("k", "v"))
	if c != nil {
		t.Fatalf("nil span StartChild = %v, want nil", c)
	}
	sp.SetAttrs(Int("n", 1))
	sp.SetExclusive()
	sp.EndExplicit(time.Second)
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span End = %v, want 0", d)
	}
	tr.Disable()
	tr.SampleAll()
	if got := tr.Last(5); got != nil {
		t.Fatalf("nil tracer Last = %v, want nil", got)
	}
	if tr.Mode() != ModeOff {
		t.Fatalf("nil tracer mode = %v, want off", tr.Mode())
	}
}

func TestOffByDefault(t *testing.T) {
	tr := NewTracer(4)
	if sp := tr.StartTrace("x"); sp != nil {
		t.Fatalf("ModeOff StartTrace = %v, want nil", sp)
	}
}

func TestTreeAndTally(t *testing.T) {
	tr := NewTracer(4)
	tr.SampleAll()
	root := tr.StartTrace("root", Str("view", "hv"))
	if root == nil {
		t.Fatal("SampleAll StartTrace returned nil")
	}
	a := root.StartChild("a")
	a1 := a.StartChild("a1")
	a1.SetExclusive()
	a1.EndExplicit(3 * time.Millisecond)
	a.End()
	b := root.StartChild("b")
	b.SetExclusive()
	b.EndExplicit(2 * time.Millisecond)
	root.End()

	got := tr.Last(10)
	if len(got) != 1 {
		t.Fatalf("Last = %d traces, want 1", len(got))
	}
	trc := got[0]
	if trc.Spans != 4 {
		t.Errorf("Spans = %d, want 4", trc.Spans)
	}
	if want := int64(5 * time.Millisecond); trc.ExclusiveNs != want {
		t.Errorf("ExclusiveNs = %d, want %d", trc.ExclusiveNs, want)
	}
	if len(trc.Root.Children) != 2 || trc.Root.Children[0].Name != "a" || trc.Root.Children[1].Name != "b" {
		t.Errorf("children = %+v, want [a b]", trc.Root.Children)
	}
	if trc.Root.Children[0].Children[0].Name != "a1" {
		t.Errorf("grandchild = %q, want a1", trc.Root.Children[0].Children[0].Name)
	}
	if got := tr.Get(trc.ID); got != trc {
		t.Errorf("Get(%d) = %v, want the trace", trc.ID, got)
	}
	if got := tr.Get(trc.ID + 99); got != nil {
		t.Errorf("Get(unknown) = %v, want nil", got)
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := NewTracer(4)
	tr.SampleAll()
	sp := tr.StartTrace("x")
	sp.EndExplicit(time.Millisecond)
	sp.EndExplicit(time.Hour) // ignored
	sp.End()                  // ignored
	if sp.Dur != time.Millisecond {
		t.Fatalf("Dur = %v, want 1ms", sp.Dur)
	}
	if n := tr.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1 (double End must not re-push)", n)
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer(3)
	tr.SampleAll()
	for i := 0; i < 5; i++ {
		tr.StartTrace("x").End()
	}
	got := tr.Last(0)
	if len(got) != 3 {
		t.Fatalf("retained %d traces, want 3", len(got))
	}
	// Newest first: IDs 5, 4, 3.
	for i, want := range []uint64{5, 4, 3} {
		if got[i].ID != want {
			t.Errorf("Last[%d].ID = %d, want %d", i, got[i].ID, want)
		}
	}
	if got := tr.Last(2); len(got) != 2 || got[0].ID != 5 {
		t.Errorf("Last(2) = %d traces starting %d, want 2 starting 5", len(got), got[0].ID)
	}
}

func TestSampleRate(t *testing.T) {
	tr := NewTracer(16)
	tr.SampleRate(3)
	kept := 0
	for i := 0; i < 9; i++ {
		if sp := tr.StartTrace("x"); sp != nil {
			kept++
			sp.End()
		}
	}
	if kept != 3 {
		t.Fatalf("rate=3 kept %d of 9, want 3", kept)
	}
}

func TestSampleThreshold(t *testing.T) {
	tr := NewTracer(16)
	tr.SampleThreshold(time.Millisecond)
	slow := tr.StartTrace("slow")
	c := slow.StartChild("apply")
	c.SetExclusive()
	c.EndExplicit(2 * time.Millisecond)
	slow.End()
	fast := tr.StartTrace("fast")
	c = fast.StartChild("apply")
	c.SetExclusive()
	c.EndExplicit(10 * time.Microsecond)
	fast.End()
	got := tr.Last(0)
	if len(got) != 1 || got[0].Root.Name != "slow" {
		t.Fatalf("threshold kept %d traces (%v), want just the slow one", len(got), got)
	}
}

// TestSampleThresholdWhileTracing: the threshold may change while
// traces finish, and every finishing trace reads it. Under -race, a
// plain read of the threshold beside SampleThreshold's store is
// reported.
func TestSampleThresholdWhileTracing(t *testing.T) {
	tr := NewTracer(16)
	tr.SampleThreshold(time.Millisecond)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				tr.SampleThreshold(time.Duration(1+i%2) * time.Millisecond)
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		sp := tr.StartTrace("core.execute")
		c := sp.StartChild("apply")
		c.SetExclusive()
		c.EndExplicit(time.Duration(i%3) * time.Millisecond)
		sp.End()
	}
	close(done)
	wg.Wait()
	if tr.Mode() != ModeThreshold {
		t.Fatalf("mode = %v, want threshold", tr.Mode())
	}
}

func TestConfigure(t *testing.T) {
	tr := NewTracer(4)
	cases := []struct {
		spec string
		mode Mode
	}{
		{"all", ModeAll},
		{"off", ModeOff},
		{"rate=4", ModeRate},
		{"threshold=1ms", ModeThreshold},
	}
	for _, c := range cases {
		if err := Configure(tr, c.spec); err != nil {
			t.Fatalf("Configure(%q): %v", c.spec, err)
		}
		if tr.Mode() != c.mode {
			t.Errorf("Configure(%q) mode = %v, want %v", c.spec, tr.Mode(), c.mode)
		}
	}
	for _, bad := range []string{"", "sometimes", "rate=0", "rate=x", "threshold=", "threshold=fast"} {
		if err := Configure(tr, bad); err == nil {
			t.Errorf("Configure(%q) succeeded, want error", bad)
		}
	}
}

func TestConcurrentRoots(t *testing.T) {
	// Concurrent readers (core.query) each own their root; only the
	// ring push is shared. Run a writer and several readers under the
	// race detector.
	tr := NewTracer(64)
	tr.SampleAll()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.StartTrace("core.query")
				sp.StartChild("txn.lock.wait").End()
				sp.End()
				tr.Last(5)
			}
		}()
	}
	wg.Wait()
	if n := tr.Len(); n != 64 {
		t.Fatalf("Len = %d, want full ring of 64", n)
	}
}

func TestRenderDeterministic(t *testing.T) {
	tr := NewTracer(4)
	tr.SampleAll()
	root := tr.StartTrace("core.refresh", Str("view", "hv"), Str("scenario", "C"))
	hold := root.StartChild("txn.lock.hold", Str("mode", "write"))
	ap := hold.StartChild("core.refresh.apply", Int("tuples", 40))
	ap.SetExclusive()
	ap.EndExplicit(3 * time.Millisecond)
	hold.EndExplicit(4 * time.Millisecond)
	root.EndExplicit(5 * time.Millisecond)

	got := Render(tr.Last(1)[0])
	want := "#1 spans=3 exclusive=3ms\n" +
		"  core.refresh view=hv scenario=C [5ms]\n" +
		"    txn.lock.hold mode=write [4ms]\n" +
		"      core.refresh.apply tuples=40 [3ms] (exclusive)\n"
	if got != want {
		t.Errorf("Render:\n%s\nwant:\n%s", got, want)
	}
	if got2 := Render(tr.Last(1)[0]); got2 != got {
		t.Errorf("Render not deterministic across calls")
	}
	all := RenderAll(tr.Last(0))
	if !strings.Contains(all, "core.refresh.apply") {
		t.Errorf("RenderAll missing span: %s", all)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := NewTracer(8)
	tr.SampleAll()
	for i := 0; i < 3; i++ {
		root := tr.StartTrace("core.execute", Int("tables", 2))
		ms := root.StartChild("core.makesafe", Str("view", "hv"))
		ms.EndExplicit(200 * time.Microsecond)
		ap := root.StartChild("core.apply")
		ap.SetExclusive()
		ap.EndExplicit(100 * time.Microsecond)
		root.End()
	}
	data, err := ChromeJSON(tr.Last(0))
	if err != nil {
		t.Fatalf("ChromeJSON: %v", err)
	}
	events, err := ParseChrome(data)
	if err != nil {
		t.Fatalf("ParseChrome: %v", err)
	}
	// 3 traces x 3 spans x (B+E) = 18 events.
	if len(events) != 18 {
		t.Fatalf("got %d events, want 18", len(events))
	}
	lanes := map[int64]bool{}
	for _, ev := range events {
		lanes[ev.Tid] = true
		if ev.Pid != 1 || ev.Cat != "dvm" {
			t.Errorf("event %+v: want pid=1 cat=dvm", ev)
		}
	}
	if len(lanes) != 3 {
		t.Errorf("got %d lanes, want 3 (one per trace)", len(lanes))
	}
}

func TestParseChromeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"not json", `{`},
		{"unmatched B", `{"traceEvents":[{"name":"a","cat":"dvm","ph":"B","ts":0,"pid":1,"tid":1}]}`},
		{"E without B", `{"traceEvents":[{"name":"a","cat":"dvm","ph":"E","ts":0,"pid":1,"tid":1}]}`},
		{"mismatched E", `{"traceEvents":[
			{"name":"a","cat":"dvm","ph":"B","ts":0,"pid":1,"tid":1},
			{"name":"b","cat":"dvm","ph":"E","ts":1,"pid":1,"tid":1}]}`},
		{"ts regression", `{"traceEvents":[
			{"name":"a","cat":"dvm","ph":"B","ts":5,"pid":1,"tid":1},
			{"name":"a","cat":"dvm","ph":"E","ts":1,"pid":1,"tid":1}]}`},
		{"bad phase", `{"traceEvents":[{"name":"a","cat":"dvm","ph":"X","ts":0,"pid":1,"tid":1}]}`},
		{"unnamed", `{"traceEvents":[{"name":"","cat":"dvm","ph":"B","ts":0,"pid":1,"tid":1}]}`},
	}
	for _, c := range cases {
		if _, err := ParseChrome([]byte(c.data)); err == nil {
			t.Errorf("%s: ParseChrome succeeded, want error", c.name)
		}
	}
}

func TestNamesSortedUnique(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("Names() empty")
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Errorf("Names() not sorted/unique at %d: %q then %q", i, names[i-1], names[i])
		}
	}
}
