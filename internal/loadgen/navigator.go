// Package loadgen holds the synthetic-site pieces that drive traffic
// at a live prefetching server: a Navigator, whose virtual clients walk
// the site with the same statistical structure tracegen gives the
// offline traces (popular session heads, primary-link continuations,
// hub returns), and StoreFromSite, which builds the documents that
// site serves. The benchmark (perfbench) walks its clients with the
// Navigator and serves StoreFromSite's store; cmd/prefetchd serves the
// same store.
package loadgen

import (
	"fmt"
	"math/rand"
	"sort"

	"pbppm/internal/server"
	"pbppm/internal/tracegen"
)

// Navigator chooses which URL a virtual client requests next,
// reproducing tracegen's session walk (Regularities 1–3) on an
// existing Site. All randomness comes from the caller's injected
// *rand.Rand, so a seeded dispatcher emits a deterministic request
// sequence regardless of response timing.
type Navigator struct {
	site *tracegen.Site
	p    tracegen.Profile
	// byWeight lists page indices by descending intended popularity;
	// cum is the matching cumulative weight table. Rebuilt here because
	// Site keeps its own tables private.
	byWeight []int
	cum      []float64
	// grade buckets each page into the paper's 0–3 popularity grades,
	// which modulate session length (Regularity 2).
	grade []int
}

// NewNavigator builds a navigator over a site generated from p.
func NewNavigator(site *tracegen.Site, p tracegen.Profile) (*Navigator, error) {
	if site == nil || len(site.Pages) == 0 {
		return nil, fmt.Errorf("loadgen: navigator needs a non-empty site")
	}
	n := &Navigator{site: site, p: p}
	n.byWeight = make([]int, len(site.Pages))
	for i := range n.byWeight {
		n.byWeight[i] = i
	}
	sort.Slice(n.byWeight, func(a, b int) bool {
		wa, wb := site.Pages[n.byWeight[a]].Weight, site.Pages[n.byWeight[b]].Weight
		if wa != wb {
			return wa > wb
		}
		return n.byWeight[a] < n.byWeight[b]
	})
	n.cum = make([]float64, len(n.byWeight))
	sum := 0.0
	for i, idx := range n.byWeight {
		sum += site.Pages[idx].Weight
		n.cum[i] = sum
	}
	n.grade = make([]int, len(site.Pages))
	total := len(site.Pages)
	for pos, idx := range n.byWeight {
		switch {
		case pos < total/50+1:
			n.grade[idx] = 3
		case pos < total/10+1:
			n.grade[idx] = 2
		case pos < total/3+1:
			n.grade[idx] = 1
		}
	}
	return n, nil
}

// entry picks a page from the popular entry set. headShift slides the
// set down the popularity order — a flash crowd converging on pages
// that were not the head yesterday, which invalidates the model's
// learned session starts until maintenance catches up.
func (n *Navigator) entry(rng *rand.Rand, headShift int) int {
	top := n.p.EntryCount
	if top <= 0 || top > len(n.byWeight) {
		top = len(n.byWeight)
	}
	shift := headShift
	if max := len(n.byWeight) - top; shift > max {
		shift = max
	}
	if shift < 0 {
		shift = 0
	}
	return n.byWeight[shift+rng.Intn(top)]
}

// sampleByWeight draws a page from the intended popularity
// distribution.
func (n *Navigator) sampleByWeight(rng *rand.Rand) int {
	total := n.cum[len(n.cum)-1]
	x := rng.Float64() * total
	i := sort.SearchFloat64s(n.cum, x)
	if i >= len(n.byWeight) {
		i = len(n.byWeight) - 1
	}
	return n.byWeight[i]
}

// Start opens a session: a head page (biased toward the popular entry
// set, Regularity 1) and the session's continue probability, boosted
// by the head's popularity grade (Regularity 2).
func (n *Navigator) Start(rng *rand.Rand, headShift int) (page int, pCont float64) {
	if rng.Float64() < n.p.PopularHeadBias {
		page = n.entry(rng, headShift)
	} else {
		page = n.sampleByWeight(rng)
	}
	pCont = n.p.ContinueBase + n.p.ContinueHeadBoost*float64(n.grade[page])
	if pCont > 0.93 {
		pCont = 0.93
	}
	return page, pCont
}

// Next chooses the click after cur: an off-structure popular jump (hub
// return or entry-set scatter), the primary link, or a uniform pick
// among the remaining links (Regularity 3). ok is false when the page
// is a dead end.
func (n *Navigator) Next(rng *rand.Rand, cur, headShift int) (next int, ok bool) {
	pg := &n.site.Pages[cur]
	switch {
	case rng.Float64() < n.p.JumpPopularProb:
		if rng.Float64() < n.p.HubJumpShare {
			return pg.Hub, true
		}
		return n.entry(rng, headShift), true
	case pg.Primary >= 0 && rng.Float64() < n.p.PrimaryProb:
		return pg.Primary, true
	case len(pg.Links) > 0:
		return pg.Links[rng.Intn(len(pg.Links))], true
	default:
		return 0, false
	}
}

// URL returns the page's request path.
func (n *Navigator) URL(page int) string { return n.site.Pages[page].URL }

// Pages returns the site size.
func (n *Navigator) Pages() int { return len(n.site.Pages) }

// StoreFromSite materializes synthetic bodies for every page and image
// of a site.
func StoreFromSite(site *tracegen.Site) server.MapStore {
	store := server.MapStore{}
	for _, pg := range site.Pages {
		store[pg.URL] = server.Document{
			URL:         pg.URL,
			Body:        make([]byte, pg.Size),
			ContentType: "text/html; charset=utf-8",
		}
		for _, img := range pg.Images {
			store[img.URL] = server.Document{
				URL:         img.URL,
				Body:        make([]byte, img.Size),
				ContentType: "image/gif",
			}
		}
	}
	return store
}
