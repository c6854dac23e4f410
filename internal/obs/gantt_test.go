package obs

import (
	"strings"
	"testing"
	"time"
)

func TestGanttAddAndSpan(t *testing.T) {
	g := &Gantt{}
	g.Add("IO", "0", 0, 100*time.Millisecond)
	g.Add("IO", "1", 100*time.Millisecond, 150*time.Millisecond)
	g.Add("Compute", "0", 100*time.Millisecond, 200*time.Millisecond)
	if len(g.Rows) != 2 {
		t.Fatalf("rows %d", len(g.Rows))
	}
	if g.Span() != 200*time.Millisecond {
		t.Fatalf("span %v", g.Span())
	}
	if got := g.Rows[0].Busy(); got != 150*time.Millisecond {
		t.Fatalf("IO busy %v", got)
	}
}

func TestGanttUtilization(t *testing.T) {
	g := &Gantt{}
	g.Add("IO", "0", 0, 50*time.Millisecond)
	g.Add("Compute", "0", 50*time.Millisecond, 100*time.Millisecond)
	if u := g.Utilization("IO"); u != 0.5 {
		t.Fatalf("IO utilization %v", u)
	}
	if u := g.Utilization("nope"); u != 0 {
		t.Fatalf("missing row utilization %v", u)
	}
	if (&Gantt{}).Utilization("IO") != 0 {
		t.Fatal("empty gantt utilization must be 0")
	}
}

func TestGanttRender(t *testing.T) {
	g := &Gantt{}
	g.Add("IO", "a", 0, 60*time.Millisecond)
	g.Add("Compute", "b", 60*time.Millisecond, 120*time.Millisecond)
	out := g.Render(40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // two rows + axis
		t.Fatalf("render lines %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "#") || !strings.Contains(lines[1], "#") {
		t.Fatalf("busy segments not drawn:\n%s", out)
	}
	// First half of compute row must be idle dots.
	if !strings.Contains(lines[1], ".") {
		t.Fatalf("idle time not drawn:\n%s", out)
	}
}

func TestGanttRenderEmptyAndTiny(t *testing.T) {
	if out := (&Gantt{}).Render(40); !strings.Contains(out, "empty") {
		t.Fatalf("empty render %q", out)
	}
	g := &Gantt{}
	g.Add("IO", "x", 0, time.Nanosecond)
	if out := g.Render(1); out == "" { // clamps to minimum width
		t.Fatal("tiny render empty")
	}
}

func TestGanttAddPanicsOnNegativeSegment(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Gantt{}).Add("IO", "bad", time.Second, 0)
}
