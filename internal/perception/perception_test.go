package perception

import (
	"reflect"
	"testing"
	"testing/quick"

	"trader/internal/sim"
)

func defaultUser() *User {
	return &User{
		Group:            "casual",
		Importance:       DefaultImportance,
		Usage:            DefaultUsage,
		Tolerance:        1.0,
		ExternalDiscount: 0.3,
	}
}

func TestIrritationBasics(t *testing.T) {
	u := defaultUser()
	f := Failure{Function: "audio", Severity: 0.8, Duration: 10 * sim.Second, Attribution: Internal}
	irr := u.Irritation(f)
	if irr <= 0 || irr > 1 {
		t.Fatalf("irritation = %v, out of (0,1]", irr)
	}
	// Unknown function: no irritation.
	none := u.Irritation(Failure{Function: "ghost", Severity: 1, Duration: sim.Second})
	if none != 0 {
		t.Fatalf("unknown function irritation = %v", none)
	}
}

func TestAttributionEffect(t *testing.T) {
	u := defaultUser()
	internal := Failure{Function: "audio", Severity: 0.5, Duration: 10 * sim.Second, Attribution: Internal}
	external := internal
	external.Attribution = External
	if u.Irritation(external) >= u.Irritation(internal) {
		t.Fatal("external attribution must discount irritation")
	}
}

func TestSeverityAndDurationMonotone(t *testing.T) {
	u := defaultUser()
	base := Failure{Function: "audio", Severity: 0.3, Duration: 5 * sim.Second, Attribution: Internal}
	worse := base
	worse.Severity = 0.9
	if u.Irritation(worse) <= u.Irritation(base) {
		t.Fatal("higher severity must irritate more")
	}
	longer := base
	longer.Duration = 60 * sim.Second
	if u.Irritation(longer) <= u.Irritation(base) {
		t.Fatal("longer exposure must irritate more")
	}
}

func TestToleranceReducesIrritation(t *testing.T) {
	a, b := defaultUser(), defaultUser()
	b.Tolerance = 2.0
	f := Failure{Function: "audio", Severity: 0.5, Duration: 10 * sim.Second, Attribution: Internal}
	if b.Irritation(f) >= a.Irritation(f) {
		t.Fatal("tolerance must reduce irritation")
	}
}

// Property: irritation is always in [0,1] for any inputs.
func TestPropertyIrritationBounded(t *testing.T) {
	f := func(sev, tol, disc float64, durMs uint32, external bool) bool {
		sev = clamp01(abs(sev))
		u := defaultUser()
		u.Tolerance = 0.1 + clamp01(abs(tol))
		u.ExternalDiscount = clamp01(abs(disc))
		att := Internal
		if external {
			att = External
		}
		fail := Failure{
			Function: "audio", Severity: sev,
			Duration: sim.Time(durMs) * sim.Millisecond, Attribution: att,
		}
		irr := u.Irritation(fail)
		return irr >= 0 && irr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func clamp01(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}
func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestPanelGeneration(t *testing.T) {
	p := NewPanel(1, 10, DefaultGroups)
	if len(p.Users) != 30 {
		t.Fatalf("users = %d, want 30", len(p.Users))
	}
	groups := map[string]int{}
	for _, u := range p.Users {
		groups[u.Group]++
		if u.Tolerance <= 0 || u.ExternalDiscount <= 0 || u.ExternalDiscount > 1 {
			t.Fatalf("user out of range: %+v", u)
		}
	}
	if groups["casual"] != 10 || groups["enthusiast"] != 10 || groups["senior"] != 10 {
		t.Fatalf("groups = %v", groups)
	}
	// Determinism.
	p2 := NewPanel(1, 10, DefaultGroups)
	if p2.Users[5].Tolerance != p.Users[5].Tolerance {
		t.Fatal("panel generation not deterministic")
	}
}

// TestPanelIsAFunctionOfItsSeed builds the same panel many times: every
// user's jittered importance and usage must come out identical, whatever
// order the runtime iterates the default maps in.
func TestPanelIsAFunctionOfItsSeed(t *testing.T) {
	want := NewPanel(7, 5, DefaultGroups)
	for i := 0; i < 20; i++ {
		if got := NewPanel(7, 5, DefaultGroups); !reflect.DeepEqual(got, want) {
			t.Fatalf("build %d of the seed-7 panel differs from the first", i+1)
		}
	}
}

// TestPaperFindingAttributionFlip reproduces the Sect. 4.6 result: users
// *say* image quality matters more than the swivel, but under observation an
// equally severe swivel failure (attributed to the product) irritates more
// than bad image quality (attributed to the broadcast).
func TestPaperFindingAttributionFlip(t *testing.T) {
	panel := NewPanel(42, 50, DefaultGroups)

	stated := panel.StatedImportanceRanking()
	if stated.RankOf("image-quality") >= stated.RankOf("swivel") {
		t.Fatalf("stated ranking should put image-quality above swivel: %v", stated)
	}

	failures := []Failure{
		{Function: "image-quality", Severity: 0.6, Duration: 30 * sim.Second, Attribution: External},
		{Function: "swivel", Severity: 0.6, Duration: 30 * sim.Second, Attribution: Internal},
		{Function: "teletext", Severity: 0.6, Duration: 30 * sim.Second, Attribution: Internal},
	}
	observed := panel.ObservedIrritationRanking(failures)
	if observed.RankOf("swivel") >= observed.RankOf("image-quality") {
		t.Fatalf("observed ranking should flip: %v", observed)
	}

	// Ablation: without the attribution term (discount = 1), the flip
	// disappears — importance dominates again.
	for _, u := range panel.Users {
		u.ExternalDiscount = 1.0
	}
	flat := panel.ObservedIrritationRanking(failures)
	if flat.RankOf("image-quality") >= flat.RankOf("swivel") {
		t.Fatalf("without attribution, image-quality should lead: %v", flat)
	}
}

func TestMeanIrritationEmptyPanel(t *testing.T) {
	p := &Panel{}
	if p.MeanIrritation(Failure{Function: "audio", Severity: 1}) != 0 {
		t.Fatal("empty panel should be indifferent")
	}
}

func TestRankingHelpers(t *testing.T) {
	r := Ranking{{Label: "a", Score: 3}, {Label: "b", Score: 1}}
	if r.RankOf("a") != 1 || r.RankOf("b") != 2 || r.RankOf("x") != 0 {
		t.Fatal("RankOf wrong")
	}
	if Internal.String() != "internal" || External.String() != "external" {
		t.Fatal("attribution names")
	}
}
