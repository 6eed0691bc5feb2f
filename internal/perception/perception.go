// Package perception models user-perceived failure severity (Sect. 4.6,
// DTI): "the aim is to capture user-perceived failure severity, to get an
// indication of the level of user-irritation caused by a product failure".
// The model encodes the factors the paper's controlled experiments studied —
// product usage, user group, function importance — plus the finding that
// *failure attribution* dominates: "users often turn out to be very tolerant
// concerning bad image quality (which is attributed to external sources),
// but get irritated if the swivel does not work correctly".
//
// The synthetic controlled-experiment harness (Panel) regenerates that
// result: stated importance ranks image quality at the top, while observed
// irritation ranks internally-attributed failures higher (E8).
package perception

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"

	"trader/internal/sim"
)

// Attribution is where a user believes a failure originates.
type Attribution int

// Attribution values.
const (
	// Internal failures are blamed on the product (a stuck swivel motor).
	Internal Attribution = iota
	// External failures are blamed on the environment (bad image quality
	// from a poor broadcast signal).
	External
)

// String names the attribution.
func (a Attribution) String() string {
	if a == Internal {
		return "internal"
	}
	return "external"
}

// Failure is one product failure as a user experiences it.
type Failure struct {
	// Function is the affected product function ("image-quality",
	// "swivel", "teletext", "audio", ...).
	Function string
	// Severity is the objective magnitude in [0,1].
	Severity float64
	// Duration of the user-visible effect.
	Duration sim.Time
	// Attribution is how a typical user explains the failure.
	Attribution Attribution
}

// User is one panel participant.
type User struct {
	Group string
	// Importance maps function → stated importance in [0,1].
	Importance map[string]float64
	// Usage maps function → usage frequency in [0,1].
	Usage map[string]float64
	// Tolerance scales down irritation (experienced users shrug more).
	Tolerance float64
	// ExternalDiscount multiplies irritation for externally-attributed
	// failures (the paper's attribution effect; < 1).
	ExternalDiscount float64
}

// Irritation returns the user's irritation for one failure in [0,1]:
// objective severity (sub-linear — users saturate), weighted by how much
// they care (importance × usage), discounted when the failure is attributed
// externally, scaled by tolerance, and amplified by exposure duration.
func (u *User) Irritation(f Failure) float64 {
	imp := u.Importance[f.Function]
	use := u.Usage[f.Function]
	if imp == 0 && use == 0 {
		return 0
	}
	care := imp * use
	sev := math.Sqrt(f.Severity)
	att := 1.0
	if f.Attribution == External {
		att = u.ExternalDiscount
	}
	// Duration saturation: a 10s failure irritates nearly as much as 60s.
	dur := 1 - math.Exp(-f.Duration.Seconds()/5)
	irr := care * sev * att * dur / u.Tolerance
	if irr > 1 {
		irr = 1
	}
	return irr
}

// GroupProfile parameterises user generation for one user group.
type GroupProfile struct {
	Name             string
	Tolerance        float64 // mean tolerance
	ExternalDiscount float64
}

// DefaultGroups are the panel groups of the synthetic experiment.
var DefaultGroups = []GroupProfile{
	{Name: "casual", Tolerance: 1.2, ExternalDiscount: 0.3},
	{Name: "enthusiast", Tolerance: 0.8, ExternalDiscount: 0.35},
	{Name: "senior", Tolerance: 1.0, ExternalDiscount: 0.25},
}

// DefaultImportance is the stated function importance used to seed users —
// image quality and swivel both rank high, as the paper reports users say.
var DefaultImportance = map[string]float64{
	"image-quality": 0.95,
	"audio":         0.9,
	"swivel":        0.85,
	"teletext":      0.5,
	"menu":          0.4,
	"sleep":         0.2,
}

// DefaultUsage is how often each function is exercised.
var DefaultUsage = map[string]float64{
	"image-quality": 1.0,
	"audio":         1.0,
	"swivel":        0.6,
	"teletext":      0.4,
	"menu":          0.3,
	"sleep":         0.1,
}

// Panel is a set of synthetic users.
type Panel struct {
	Users []*User
}

// NewPanel generates n users per group with mild deterministic variation.
func NewPanel(seed int64, nPerGroup int, groups []GroupProfile) *Panel {
	rng := rand.New(rand.NewSource(seed))
	p := &Panel{}
	jitter := func(v float64) float64 {
		j := v * (1 + 0.2*(rng.Float64()-0.5))
		if j < 0.01 {
			j = 0.01
		}
		if j > 1 {
			j = 1
		}
		return j
	}
	for _, g := range groups {
		for i := 0; i < nPerGroup; i++ {
			u := &User{
				Group:            g.Name,
				Importance:       map[string]float64{},
				Usage:            map[string]float64{},
				Tolerance:        g.Tolerance * (1 + 0.2*(rng.Float64()-0.5)),
				ExternalDiscount: g.ExternalDiscount * (1 + 0.3*(rng.Float64()-0.5)),
			}
			// Draw in key order: map order is random per run, and the
			// panel must be a function of its seed.
			for _, fn := range slices.Sorted(maps.Keys(DefaultImportance)) {
				u.Importance[fn] = jitter(DefaultImportance[fn])
			}
			for _, fn := range slices.Sorted(maps.Keys(DefaultUsage)) {
				u.Usage[fn] = jitter(DefaultUsage[fn])
			}
			p.Users = append(p.Users, u)
		}
	}
	return p
}

// MeanIrritation returns the panel's mean irritation for one failure.
func (p *Panel) MeanIrritation(f Failure) float64 {
	if len(p.Users) == 0 {
		return 0
	}
	var sum float64
	for _, u := range p.Users {
		sum += u.Irritation(f)
	}
	return sum / float64(len(p.Users))
}

// Ranking is an ordered list of (label, score) pairs, highest first.
type Ranking []RankedItem

// RankedItem is one ranking entry.
type RankedItem struct {
	Label string
	Score float64
}

// RankOf returns the 1-based position of label, or 0.
func (r Ranking) RankOf(label string) int {
	for i, it := range r {
		if it.Label == label {
			return i + 1
		}
	}
	return 0
}

// StatedImportanceRanking ranks functions by the panel's mean stated
// importance — what users *say* matters.
func (p *Panel) StatedImportanceRanking() Ranking {
	sums := map[string]float64{}
	for _, u := range p.Users {
		for fn, v := range u.Importance {
			sums[fn] += v
		}
	}
	return toRanking(sums, float64(len(p.Users)))
}

// ObservedIrritationRanking ranks the given failures by the panel's mean
// irritation — what *actually* bothers users under observation.
func (p *Panel) ObservedIrritationRanking(failures []Failure) Ranking {
	sums := map[string]float64{}
	for _, f := range failures {
		sums[f.Function] += p.MeanIrritation(f)
	}
	return toRanking(sums, 1)
}

func toRanking(sums map[string]float64, div float64) Ranking {
	var r Ranking
	for label, s := range sums {
		r = append(r, RankedItem{Label: label, Score: s / div})
	}
	sort.SliceStable(r, func(i, j int) bool {
		if r[i].Score != r[j].Score {
			return r[i].Score > r[j].Score
		}
		return r[i].Label < r[j].Label
	})
	return r
}
