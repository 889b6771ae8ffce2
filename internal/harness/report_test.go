package harness

import (
	"strings"
	"testing"
)

func TestReportRenderAlignment(t *testing.T) {
	rep := &Report{ID: "x", Title: "Title", Description: "desc"}
	tb := rep.AddTable("block", []string{"a", "longheader", "c"})
	tb.AddRow("1", "2", "3")
	tb.AddRow("wide-cell", "x", "yy")
	out := rep.Render()
	if !strings.Contains(out, "=== x: Title ===") {
		t.Fatalf("missing banner:\n%s", out)
	}
	if !strings.Contains(out, "desc") || !strings.Contains(out, "-- block --") {
		t.Fatalf("missing sections:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var header, sep string
	for i, l := range lines {
		if strings.HasPrefix(l, "a ") {
			header = l
			sep = lines[i+1]
			break
		}
	}
	if header == "" {
		t.Fatalf("header row not found:\n%s", out)
	}
	// Separator matches header width.
	if len(strings.TrimRight(sep, " ")) == 0 || !strings.Contains(sep, "----") {
		t.Fatalf("separator malformed: %q", sep)
	}
	// Columns align: "longheader" starts at the same offset in header and
	// separator rows.
	if strings.Index(header, "longheader") < 0 {
		t.Fatal("header missing column")
	}
}

func TestFormatHelpers(t *testing.T) {
	if f0(1234.6) != "1235" || f1(1.25) != "1.2" || f2(1.234) != "1.23" {
		t.Fatal("float formats wrong")
	}
	if pct(0.5) != "50%" {
		t.Fatalf("pct = %q", pct(0.5))
	}
	if ms(0.00123) != "1.23ms" {
		t.Fatalf("ms = %q", ms(0.00123))
	}
	if itoa(42) != "42" {
		t.Fatalf("itoa = %q", itoa(42))
	}
}

func TestScaleSpecs(t *testing.T) {
	s := FullScale()
	spec := s.spec4(FourSocket)
	if spec.Step != s.Step || spec.Dataset.Rows != s.Rows {
		t.Fatalf("4S spec: %+v", spec)
	}
	spec32 := s.spec4(ThirtyTwoSocket)
	if spec32.Step != s.Step32 || spec32.Dataset.Rows != s.Rows32 {
		t.Fatalf("32S spec: %+v", spec32)
	}
	if spec32.Dataset.Columns <= spec.Dataset.Columns {
		t.Fatal("32S dataset should have more columns (paper: 160)")
	}
}

func TestPlacementSpecString(t *testing.T) {
	if (PlacementSpec{Kind: RR}).String() != "RR" {
		t.Fatal("RR name")
	}
	if (PlacementSpec{Kind: IVP, Partitions: 8}).String() != "IVP8" {
		t.Fatal("IVP name")
	}
	if (PlacementSpec{Kind: PP, Partitions: 2}).String() != "PP2" {
		t.Fatal("PP name")
	}
}

func TestMachineKindBuild(t *testing.T) {
	for _, k := range []MachineKind{FourSocket, EightSocket, SixteenSocket, ThirtyTwoSocket} {
		m := k.Build()
		if m == nil || m.Sockets == 0 {
			t.Fatalf("machine %v not built", k)
		}
		if k.String() == "" {
			t.Fatal("empty name")
		}
	}
}
