package experiment

// The persistent result tier: experiment results are compact (a figure
// and its rendering), pure functions of (experiment ID, options) at a
// fixed code revision, and digest-validated — exactly the shape an
// on-disk content-addressed cache wants. This file derives the cache
// keys, defines the stored payload, and implements the load/save path
// Sweep uses to skip an experiment's plan entirely on a warm hit.
//
// Freshness is a key property, not a validation property: the stored
// digest proves the bytes are intact, not that the current code would
// still produce them. The namespace component (conventionally the VCS
// revision, see cmd/athena-bench) partitions the store per code
// version so a sweep on changed code misses instead of resurrecting a
// previous revision's figures.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"athena/internal/stats"
	"athena/internal/store"
)

// cacheKeyVersion versions the key derivation and payload encoding
// together: bump it when either changes so older entries miss.
const cacheKeyVersion = 1

// CacheKey derives the content address of one experiment result. The
// key is a pure function of (namespace, experiment ID, options):
// everything the rendered figure depends on at a fixed revision —
// Plan is required to be a pure function of Options, and the namespace
// stands in for the revision.
func CacheKey(namespace string, e Experiment, opts Options) string {
	optJSON, err := json.Marshal(opts)
	if err != nil {
		// Options is a plain struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("experiment: marshaling options: %v", err))
	}
	return fmt.Sprintf("athena-exp/v%d|ns=%s|id=%s|opts=%s",
		cacheKeyVersion, namespace, strings.ToLower(e.ID), optJSON)
}

// cachePayload is the stored form of one result: the structured figure
// (so OutDir artifact saving works on a cache hit) plus the digest of
// its rendering. The rendering itself is not stored — it is recomputed
// from the figure on load and checked against the digest, which both
// halves the entry size and turns any drift in the figure encoding
// into a detected miss instead of a silently stale rendering.
type cachePayload struct {
	ID      string      `json:"id"`
	Options Options     `json:"options"`
	Digest  string      `json:"digest"`
	Figure  cacheFigure `json:"figure"`
}

// cacheFigure mirrors FigureData with every float carried as a
// strconv 'g'/-1 string: the shortest exact representation, and — the
// reason encoding/json floats won't do — well-defined for NaN and ±Inf,
// which real figures contain (empty-quantile scalars at small scales).
type cacheFigure struct {
	ID      string            `json:"id"`
	Title   string            `json:"title"`
	Series  []cacheSeries     `json:"series,omitempty"`
	Notes   []string          `json:"notes,omitempty"`
	Scalars map[string]string `json:"scalars"`
}

type cacheSeries struct {
	Name string   `json:"name"`
	X    []string `json:"x"`
	Y    []string `json:"y"`
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func encodeFigure(f *FigureData) cacheFigure {
	cf := cacheFigure{ID: f.ID, Title: f.Title, Notes: f.Notes, Scalars: make(map[string]string, len(f.Scalars))}
	for k, v := range f.Scalars {
		cf.Scalars[k] = formatF(v)
	}
	for _, s := range f.Series {
		cs := cacheSeries{Name: s.Name, X: make([]string, len(s.Points)), Y: make([]string, len(s.Points))}
		for i, p := range s.Points {
			cs.X[i], cs.Y[i] = formatF(p.X), formatF(p.Y)
		}
		cf.Series = append(cf.Series, cs)
	}
	return cf
}

func decodeFigure(cf cacheFigure) (*FigureData, error) {
	f := &FigureData{ID: cf.ID, Title: cf.Title, Notes: cf.Notes, Scalars: make(map[string]float64, len(cf.Scalars))}
	for k, v := range cf.Scalars {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("scalar %s: %w", k, err)
		}
		f.Scalars[k] = x
	}
	for _, cs := range cf.Series {
		if len(cs.X) != len(cs.Y) {
			return nil, fmt.Errorf("series %s: %d xs vs %d ys", cs.Name, len(cs.X), len(cs.Y))
		}
		pts := make([]stats.Point, len(cs.X))
		for i := range cs.X {
			x, err := strconv.ParseFloat(cs.X[i], 64)
			if err != nil {
				return nil, fmt.Errorf("series %s point %d: %w", cs.Name, i, err)
			}
			y, err := strconv.ParseFloat(cs.Y[i], 64)
			if err != nil {
				return nil, fmt.Errorf("series %s point %d: %w", cs.Name, i, err)
			}
			pts[i] = stats.Point{X: x, Y: y}
		}
		f.Series = append(f.Series, Series{Name: cs.Name, Points: pts})
	}
	return f, nil
}

// loadCached looks key up in the store and semantically validates the
// entry: the payload must decode, carry the requested experiment ID and
// options, and its figure must re-render to exactly the recorded
// digest. A byte-intact but semantically wrong entry is invalidated
// (counted corrupt) and reported as a miss — the caller recomputes.
func loadCached(s *store.Store, key string, e Experiment, opts Options) (*FigureData, string, string, bool) {
	raw, ok := s.Get(key)
	if !ok {
		return nil, "", "", false
	}
	var p cachePayload
	if err := json.Unmarshal(raw, &p); err != nil ||
		!strings.EqualFold(p.ID, e.ID) || p.Options != opts || p.Digest == "" {
		s.Invalidate(key)
		return nil, "", "", false
	}
	fig, err := decodeFigure(p.Figure)
	if err != nil {
		s.Invalidate(key)
		return nil, "", "", false
	}
	rendered := fig.String()
	if Digest(rendered) != p.Digest {
		s.Invalidate(key)
		return nil, "", "", false
	}
	return fig, rendered, p.Digest, true
}

// saveCached writes one result into the store. Errors are returned for
// the caller to surface; a failed write never fails the sweep.
func saveCached(s *store.Store, key string, e Experiment, opts Options, fig *FigureData, digest string) error {
	raw, err := json.Marshal(cachePayload{ID: e.ID, Options: opts, Digest: digest, Figure: encodeFigure(fig)})
	if err != nil {
		return fmt.Errorf("experiment: encoding cache entry for %s: %w", e.ID, err)
	}
	return s.Put(key, raw)
}
