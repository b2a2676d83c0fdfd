package experiment

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Experiment is one registered evaluation artifact: identity and
// metadata plus the plan that renders it. Experiments are values;
// registering one is all it takes for the sweep engine, both CLIs, the
// manifest writer and the docs listing to pick it up.
type Experiment struct {
	// ID is the artifact identifier ("F3", "M1", …). Lookup and
	// selection are case-insensitive; the canonical casing is whatever
	// was registered.
	ID string
	// Title is the one-line headline, matching the rendered figure's.
	Title string
	// Family groups related artifacts ("figure", "mitigation",
	// "ablation", "study", or anything an out-of-tree caller chooses).
	Family string
	// Tags are free-form selection labels; the family name is
	// conventionally among them.
	Tags []string
	// Description is a sentence of context for listings.
	Description string
	// Plan declares the artifact's simulations and how their results
	// fold into its figure; Sweep and Generate execute it. It must be a
	// pure function of its Options (all scenario randomness derives from
	// Options.Seed), so equal options always render byte-identical
	// figures.
	Plan func(Options) Plan
}

// HasTag reports whether the experiment carries the tag
// (case-insensitive).
func (e Experiment) HasTag(tag string) bool {
	for _, t := range e.Tags {
		if strings.EqualFold(t, tag) {
			return true
		}
	}
	return false
}

// Registry holds a set of experiments keyed by case-insensitive ID.
// The zero value is not usable; create instances with NewRegistry or
// use the package-level Default registry the built-in drivers populate.
type Registry struct {
	mu   sync.RWMutex
	byID map[string]Experiment // key: lowercased ID
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]Experiment)}
}

// Default is the process-wide registry. Every built-in driver registers
// itself here from its package init; out-of-tree experiments join with
// Register and are selected and swept exactly like the built-ins.
var Default = NewRegistry()

// Register adds an experiment, rejecting empty IDs, nil plans and
// duplicate (case-insensitive) IDs.
func (r *Registry) Register(e Experiment) error {
	if strings.TrimSpace(e.ID) == "" {
		return fmt.Errorf("experiment: empty ID (title %q)", e.Title)
	}
	if e.Plan == nil {
		return fmt.Errorf("experiment %s: nil plan", e.ID)
	}
	key := strings.ToLower(e.ID)
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byID[key]; ok {
		return fmt.Errorf("experiment %s: already registered (as %s)", e.ID, prev.ID)
	}
	r.byID[key] = e
	return nil
}

// MustRegister registers experiments, panicking on error — for init-time
// registration, where a duplicate or empty ID is a programming bug.
func (r *Registry) MustRegister(es ...Experiment) {
	for _, e := range es {
		if err := r.Register(e); err != nil {
			panic(err)
		}
	}
}

// Lookup finds an experiment by case-insensitive ID.
func (r *Registry) Lookup(id string) (Experiment, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byID[strings.ToLower(strings.TrimSpace(id))]
	return e, ok
}

// All returns every experiment in canonical order: families in paper
// order (F, M, A, S, then any out-of-tree family alphabetically), then
// numerically within a family — F3 … F9a, F9b, F10 — independent of
// registration order, so listings and full sweeps are stable.
func (r *Registry) All() []Experiment {
	r.mu.RLock()
	es := make([]Experiment, 0, len(r.byID))
	for _, e := range r.byID {
		es = append(es, e)
	}
	r.mu.RUnlock()
	sort.Slice(es, func(i, j int) bool { return idLess(es[i].ID, es[j].ID) })
	return es
}

// IDs returns every registered ID in canonical order.
func (r *Registry) IDs() []string {
	es := r.All()
	ids := make([]string, len(es))
	for i, e := range es {
		ids[i] = e.ID
	}
	return ids
}

// idLess orders IDs by (family rank, family letters, number, suffix).
func idLess(a, b string) bool {
	fa, na, sa := splitID(a)
	fb, nb, sb := splitID(b)
	ra, rb := familyRank(fa), familyRank(fb)
	if ra != rb {
		return ra < rb
	}
	if fa != fb {
		return fa < fb
	}
	if na != nb {
		return na < nb
	}
	return sa < sb
}

func familyRank(fam string) int {
	switch fam {
	case "F":
		return 0
	case "M":
		return 1
	case "A":
		return 2
	case "S":
		return 3
	}
	return 4
}

// splitID decomposes "F9a" into ("F", 9, "a"), uppercasing the family
// and lowercasing the suffix so ordering is case-insensitive.
func splitID(id string) (fam string, num int, suffix string) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	fam = strings.ToUpper(id[:i])
	j := i
	for j < len(id) && id[j] >= '0' && id[j] <= '9' {
		j++
	}
	num, _ = strconv.Atoi(id[i:j])
	return fam, num, strings.ToLower(id[j:])
}

// Selection is the declarative filter language: the fields intersect,
// and an entirely empty Selection selects everything.
type Selection struct {
	// IDs keeps exactly these experiments (case-insensitive). An
	// unknown ID is an error listing the valid IDs — a typo must not
	// silently select nothing.
	IDs []string
	// Tags keeps experiments carrying at least one of these tags
	// (case-insensitive).
	Tags []string
	// Regex keeps experiments whose ID or Title matches the
	// (case-insensitive) pattern.
	Regex string
}

// Select filters the registry, returning matches in canonical order.
func (r *Registry) Select(sel Selection) ([]Experiment, error) {
	keep := r.All()
	if len(sel.IDs) > 0 {
		want := make(map[string]bool, len(sel.IDs))
		for _, id := range sel.IDs {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if _, ok := r.Lookup(id); !ok {
				return nil, fmt.Errorf("unknown experiment ID %q (valid: %s)",
					id, strings.Join(r.IDs(), ", "))
			}
			want[strings.ToLower(id)] = true
		}
		keep = filter(keep, func(e Experiment) bool { return want[strings.ToLower(e.ID)] })
	}
	if len(sel.Tags) > 0 {
		keep = filter(keep, func(e Experiment) bool {
			for _, t := range sel.Tags {
				if t = strings.TrimSpace(t); t != "" && e.HasTag(t) {
					return true
				}
			}
			return false
		})
	}
	if sel.Regex != "" {
		re, err := regexp.Compile("(?i:" + sel.Regex + ")")
		if err != nil {
			return nil, fmt.Errorf("bad experiment regex %q: %w", sel.Regex, err)
		}
		keep = filter(keep, func(e Experiment) bool {
			return re.MatchString(e.ID) || re.MatchString(e.Title)
		})
	}
	return keep, nil
}

func filter(es []Experiment, pred func(Experiment) bool) []Experiment {
	out := es[:0:0]
	for _, e := range es {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// Package-level wrappers over the Default registry.

// MustRegister adds experiments to the Default registry, panicking on
// error.
func MustRegister(es ...Experiment) { Default.MustRegister(es...) }

// Lookup finds an experiment in the Default registry by
// case-insensitive ID.
func Lookup(id string) (Experiment, bool) { return Default.Lookup(id) }

// All lists the Default registry in canonical order.
func All() []Experiment { return Default.All() }

// Select filters the Default registry.
func Select(sel Selection) ([]Experiment, error) { return Default.Select(sel) }
