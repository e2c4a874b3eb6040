package experiment

import (
	"strings"
	"testing"
)

func TestFig2QuickShape(t *testing.T) {
	fig, err := Fig2(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig2", fig)
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(fig.Series))
	}
	byLabel := map[string][]Point{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s.Points
	}
	efw := byLabel["EFW"]
	if efw[0].Y < 90 {
		t.Errorf("EFW at depth 1 = %.1f, want >90", efw[0].Y)
	}
	last := efw[len(efw)-1]
	if last.Y > 60 || last.Y < 40 {
		t.Errorf("EFW at depth 64 = %.1f, want ≈50", last.Y)
	}
	ipt := byLabel["iptables"]
	if ipt[len(ipt)-1].Y < 90 {
		t.Errorf("iptables at depth 64 = %.1f, want >90", ipt[len(ipt)-1].Y)
	}
	adf := byLabel["ADF"]
	if adf[len(adf)-1].Y >= last.Y {
		t.Errorf("ADF (%.1f) not below EFW (%.1f) at 64 rules", adf[len(adf)-1].Y, last.Y)
	}

	out := fig.Render()
	for _, want := range []string{"Figure 2", "EFW", "ADF (VPG)", "iptables"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig3aQuickShape(t *testing.T) {
	fig, err := Fig3a(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3a", fig)
	byLabel := map[string][]Point{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s.Points
	}
	nofw := byLabel["No Firewall"]
	if nofw[len(nofw)-1].Y < 70 {
		t.Errorf("No Firewall at 12.5k pps = %.1f, want ≥70", nofw[len(nofw)-1].Y)
	}
	efw := byLabel["EFW"]
	if efw[len(efw)-1].Y > 5 {
		t.Errorf("EFW at 12.5k pps = %.1f, want ≈0", efw[len(efw)-1].Y)
	}
	if efw[0].Y < 90 {
		t.Errorf("EFW with no flood = %.1f, want >90", efw[0].Y)
	}
}

func TestFig3bQuickShape(t *testing.T) {
	fig, err := Fig3b(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3b", fig)
	byLabel := map[string][]Point{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s.Points
	}
	efwAllow := byLabel["EFW (Allow)"]
	if len(efwAllow) != 2 {
		t.Fatalf("EFW (Allow) points = %d", len(efwAllow))
	}
	if efwAllow[1].Y >= efwAllow[0].Y {
		t.Errorf("min flood rate did not decline with depth: %v", efwAllow)
	}
	adfDeny := byLabel["ADF (Deny)"]
	if adfDeny[1].Y <= efwAllow[1].Y {
		t.Errorf("ADF deny (%.0f) not above EFW allow (%.0f) at depth 64", adfDeny[1].Y, efwAllow[1].Y)
	}
}

func TestTable1QuickShape(t *testing.T) {
	tab, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1", tab)
	if len(tab.Columns) != 5 { // Experiment, Standard, ADF 1, ADF 64, VPG 1
		t.Fatalf("columns = %v", tab.Columns)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	out := tab.Render()
	for _, want := range []string{"HTTP Fetches/s", "ms/connect", "ms/first-response", "Standard NIC"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	abl1, err := AblationDenyResponses(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "abl1", abl1)
	if len(abl1.Rows) != 2 {
		t.Errorf("ABL1 rows = %d", len(abl1.Rows))
	}
	abl2, err := AblationVPGLazyDecrypt(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "abl2", abl2)
	if len(abl2.Rows) != 2 {
		t.Errorf("ABL2 rows = %d", len(abl2.Rows))
	}
	abl3, err := AblationTrailingRules(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "abl3", abl3)
	if len(abl3.Rows) != 2 {
		t.Errorf("ABL3 rows = %d", len(abl3.Rows))
	}
}

func TestFigureRenderAlignsMissingCells(t *testing.T) {
	fig := &Figure{
		Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 1, Y: 2}}},
			{Label: "b", Points: []Point{{X: 3, Y: 4, Note: "LOCKUP"}}},
		},
	}
	out := fig.Render()
	if !strings.Contains(out, "LOCKUP") {
		t.Errorf("render lost note:\n%s", out)
	}
}

func TestMarkdownRenderers(t *testing.T) {
	fig := &Figure{
		Title: "F", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 2, Y: 1}, {X: 1, Y: 3}}},
			{Label: "b", Points: []Point{{X: 1, Y: 4, Note: "LOCKUP"}}},
		},
	}
	md := fig.Markdown()
	for _, want := range []string{"**F**", "| a | b |", "**LOCKUP**", "—"} {
		if !strings.Contains(md, want) {
			t.Errorf("figure markdown missing %q:\n%s", want, md)
		}
	}
	// x values sorted ascending.
	if strings.Index(md, "| 1 |") > strings.Index(md, "| 2 |") {
		t.Error("x values not sorted in markdown")
	}
	tab := &Table{Title: "T", Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	if !strings.Contains(tab.Markdown(), "| a | b |") {
		t.Errorf("table markdown:\n%s", tab.Markdown())
	}
}

func TestExtensionTablesQuick(t *testing.T) {
	ext2, err := ExtensionHTTPUnderFlood(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ext2", ext2)
	if len(ext2.Rows) != 2 {
		t.Errorf("EXT2 rows = %d", len(ext2.Rows))
	}
	ext1, err := ExtensionNextGen(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ext1", ext1)
	if len(ext1.Rows) != 3 {
		t.Errorf("EXT1 rows = %d", len(ext1.Rows))
	}
}
