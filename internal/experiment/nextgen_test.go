package experiment

import (
	"strings"
	"testing"
)

// TestNextGenFiguresQuick is the headline claim in test form: under the
// compiled-matcher profile the Figure 2 depth cliff goes flat and no
// flood rate within the search bounds causes denial of service, while
// the linear EFW keeps the paper's depth-dependent decline on the same
// sweep.
func TestNextGenFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick sweeps; skipped in -short")
	}
	fig2, err := Fig2NextGen(quickNG)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig2ng", fig2)
	series := func(fig *Figure, label string) *Series {
		for i := range fig.Series {
			if strings.HasPrefix(fig.Series[i].Label, label) {
				return &fig.Series[i]
			}
		}
		t.Fatalf("no series labeled %q in %q", label, fig.Title)
		return nil
	}

	ng := series(fig2, "NextGenFW")
	lo, hi := ng.Points[0].Y, ng.Points[0].Y
	for _, p := range ng.Points {
		if p.Y < lo {
			lo = p.Y
		}
		if p.Y > hi {
			hi = p.Y
		}
	}
	if lo < 70 {
		t.Errorf("NextGen bandwidth fell to %.1f Mbps; want wire speed at every depth", lo)
	}
	if hi > 1.15*lo {
		t.Errorf("NextGen bandwidth varies %.1f–%.1f Mbps across depths 1–512; want flat (<1.15x)", lo, hi)
	}

	efw := series(fig2, "EFW")
	first, last := efw.Points[0].Y, efw.Points[len(efw.Points)-1].Y
	if last > first/2 {
		t.Errorf("EFW bandwidth at depth 512 = %.1f Mbps vs %.1f at depth 1; want the linear cliff", last, first)
	}

	fig3, err := Fig3NextGen(quickNG)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3ng", fig3)
	for _, p := range series(fig3, "NextGenFW").Points {
		if p.Note != "no DoS found" {
			t.Errorf("NextGen at depth %.0f: DoS at %.0f pps; want none within search bounds", p.X, p.Y)
		}
	}
	for _, p := range series(fig3, "EFW").Points {
		if p.Y <= 0 {
			t.Errorf("EFW at depth %.0f: no DoS rate found; the linear card must be floodable", p.X)
		}
	}
}
