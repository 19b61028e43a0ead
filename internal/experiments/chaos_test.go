package experiments

import "testing"

func TestChaosExperiment(t *testing.T) {
	res, tab, err := Chaos()
	if err != nil {
		t.Fatal(err)
	}
	// 3 drift levels + 3 ladder rungs.
	if len(res.Points) != 6 || len(tab.Rows) != 6 {
		t.Fatalf("want 6 sweep points, got %d / %d rows", len(res.Points), len(tab.Rows))
	}
	byParam := map[string]ChaosPoint{}
	for _, p := range res.Points {
		if !p.Verified {
			t.Errorf("%s %s: contract not verified", p.Scenario, p.Param)
		}
		byParam[p.Param] = p
	}
	if p := byParam["drift=0"]; p.Fallbacks != 0 || p.Mode != "stream" {
		t.Errorf("undrifted governor point: %+v", p)
	}
	if p := byParam["drift=40"]; p.Fallbacks != 1 || p.Mode != "governed-baseline" {
		t.Errorf("drifted governor point should fall back: %+v", p)
	}
	if p := byParam["ladder=readmit"]; p.Mode != "incremental" || p.Fallbacks != 1 {
		t.Errorf("readmit rung: %+v", p)
	}
	if p := byParam["ladder=degrade"]; p.Mode != "batch" {
		t.Errorf("degrade rung: %+v", p)
	}
	if p := byParam["ladder=decline"]; p.Mode != "declined" || p.TypedErr != 1 {
		t.Errorf("decline rung: %+v", p)
	}
}
