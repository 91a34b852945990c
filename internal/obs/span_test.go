package obs

// Span/trace model tests: tree shape and sequential IDs, nil-safety of
// the disabled path, bounded fan-out, context propagation, and the
// flight-recorder rings.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

func TestSpanTree(t *testing.T) {
	fr := NewFlightRecorder(4, 8)
	root := fr.StartTrace("sweep", "r-1")
	if root.RequestID() != "r-1" {
		t.Fatalf("RequestID = %q", root.RequestID())
	}
	adm := root.StartChild("admission")
	adm.SetString("outcome", "admitted")
	adm.End()
	p := root.StartChild("point")
	p.SetInt("n", 3)
	p.SetBool("b", true)
	p.SetError(errors.New("boom"))
	p.End()
	root.End()

	d := fr.Dump()
	if d.TracesSeen != 1 || len(d.Traces) != 1 {
		t.Fatalf("dump: %d traces seen, %d retained", d.TracesSeen, len(d.Traces))
	}
	tr := d.Traces[0]
	if tr.RequestID != "r-1" || tr.Root.Name != "sweep" {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Root.ID != 1 {
		t.Errorf("root span ID = %d, want 1", tr.Root.ID)
	}
	if len(tr.Root.Children) != 2 {
		t.Fatalf("%d children", len(tr.Root.Children))
	}
	for _, c := range tr.Root.Children {
		if c.Parent != tr.Root.ID {
			t.Errorf("child %q parent = %d, want %d", c.Name, c.Parent, tr.Root.ID)
		}
	}
	got := tr.Root.Find("point")
	if got == nil {
		t.Fatal("Find(point) = nil")
	}
	if got.Attrs["n"] != int64(3) || got.Attrs["b"] != true || got.Attrs["error"] != "boom" {
		t.Errorf("attrs = %v", got.Attrs)
	}
	if tr.Root.Find("nope") != nil {
		t.Error("Find(nope) should be nil")
	}
	// The dump must marshal (it is what /debug/flight serves).
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("dump not marshallable: %v", err)
	}
}

// TestNilSpanSafe: the disabled path is a nil *Span and a nil
// *FlightRecorder; every operation must be a no-op, not a panic —
// components thread spans unconditionally.
func TestNilSpanSafe(t *testing.T) {
	var sp *Span
	c := sp.StartChild("x")
	if c != nil {
		t.Fatal("nil StartChild should stay nil")
	}
	sp.SetString("k", "v")
	sp.SetInt("k", 1)
	sp.SetBool("k", true)
	sp.SetError(errors.New("x"))
	sp.End()
	if sp.RequestID() != "" || sp.Trace() != 0 {
		t.Error("nil span accessors should return zero values")
	}

	var fr *FlightRecorder
	if fr.StartTrace("x", "r") != nil {
		t.Error("nil recorder StartTrace should return nil span")
	}
	fr.Event("error", "r", "x")
	if d := fr.Dump(); d.TracesSeen != 0 || d.EventsSeen != 0 {
		t.Error("nil recorder dump should be empty")
	}

	// Context plumbing with no span: no active span, no child.
	if SpanFromContext(context.Background()).StartChild("x") != nil {
		t.Error("a child of a context without an active span should be disabled")
	}
}

func TestSpanContextPropagation(t *testing.T) {
	fr := NewFlightRecorder(2, 2)
	root := fr.StartTrace("t", "r-ctx")
	ctx := ContextWithSpan(context.Background(), root)
	if SpanFromContext(ctx) != root {
		t.Fatal("SpanFromContext lost the span")
	}
	child := SpanFromContext(ctx).StartChild("child")
	if ctx2 := ContextWithSpan(ctx, child); child == nil || SpanFromContext(ctx2) != child {
		t.Fatal("ContextWithSpan did not thread the child")
	}
	child.End()
	root.End()
	if got := fr.Dump().Traces[0].Root.Find("child"); got == nil {
		t.Fatal("child span missing from dump")
	}
}

// TestSpanBounds: attribute and child retention is capped; drops are
// counted, and an over-cap child is still usable (timed) just not
// retained.
func TestSpanBounds(t *testing.T) {
	fr := NewFlightRecorder(2, 2)
	root := fr.StartTrace("t", "")
	for i := 0; i < maxSpanAttrs+10; i++ {
		root.SetInt(fmt.Sprintf("k%d", i), int64(i))
	}
	for i := 0; i < maxSpanChildren+5; i++ {
		c := root.StartChild("c")
		c.End()
	}
	extra := root.StartChild("overflow")
	if extra == nil {
		t.Fatal("over-cap child should still be usable")
	}
	extra.End()
	root.End()
	d := fr.Dump().Traces[0].Root
	if len(d.Attrs) != maxSpanAttrs {
		t.Errorf("%d attrs retained, want %d", len(d.Attrs), maxSpanAttrs)
	}
	if len(d.Children) != maxSpanChildren {
		t.Errorf("%d children retained, want %d", len(d.Children), maxSpanChildren)
	}
	if d.Dropped != 6 {
		t.Errorf("dropped = %d, want 6", d.Dropped)
	}
}

// TestSetAttrReplaces: setting the same key twice keeps one attr with
// the latest value (outcome flips from tentative to final).
func TestSetAttrReplaces(t *testing.T) {
	fr := NewFlightRecorder(2, 2)
	root := fr.StartTrace("t", "")
	root.SetString("outcome", "a")
	root.SetString("outcome", "b")
	root.End()
	d := fr.Dump().Traces[0].Root
	if d.Attrs["outcome"] != "b" || len(d.Attrs) != 1 {
		t.Errorf("attrs = %v", d.Attrs)
	}
}

// TestFlightRings: both rings overflow oldest-first and report totals
// seen; Dump is newest-first.
func TestFlightRings(t *testing.T) {
	fr := NewFlightRecorder(2, 3)
	for i := 0; i < 5; i++ {
		sp := fr.StartTrace(fmt.Sprintf("t%d", i), fmt.Sprintf("r-%d", i))
		sp.End()
	}
	for i := 0; i < 7; i++ {
		fr.Event("error", "", "e%d", i)
	}
	d := fr.Dump()
	if d.TracesSeen != 5 || len(d.Traces) != 2 {
		t.Fatalf("traces: seen %d retained %d", d.TracesSeen, len(d.Traces))
	}
	if d.Traces[0].Root.Name != "t4" || d.Traces[1].Root.Name != "t3" {
		t.Errorf("trace order: %s, %s (want newest first)", d.Traces[0].Root.Name, d.Traces[1].Root.Name)
	}
	if d.EventsSeen != 7 || len(d.Events) != 3 {
		t.Fatalf("events: seen %d retained %d", d.EventsSeen, len(d.Events))
	}
	if d.Events[0].Msg != "e6" || d.Events[2].Msg != "e4" {
		t.Errorf("event order: %q .. %q", d.Events[0].Msg, d.Events[2].Msg)
	}
}

func TestUnfinishedChildMarked(t *testing.T) {
	fr := NewFlightRecorder(2, 2)
	root := fr.StartTrace("t", "")
	_ = root.StartChild("stuck") // never ended
	root.End()
	d := fr.Dump().Traces[0].Root
	stuck := d.Find("stuck")
	if stuck == nil || !stuck.Unfinished {
		t.Fatalf("unfinished child not marked: %+v", stuck)
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("two IDs equal: %s", a)
	}
	if len(a) != 18 || a[:2] != "r-" {
		t.Fatalf("ID form: %q", a)
	}
}
