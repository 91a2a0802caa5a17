package loadgen

import (
	"math/rand"
	"testing"

	"pbppm/internal/tracegen"
)

// testProfile is a small site profile that keeps tests fast.
func testProfile() tracegen.Profile {
	p := tracegen.NASA()
	p.Pages = 80
	p.EntryCount = 8
	return p
}

func testSite(t *testing.T) (*tracegen.Site, tracegen.Profile) {
	t.Helper()
	p := testProfile()
	site, err := tracegen.BuildSite(p)
	if err != nil {
		t.Fatalf("BuildSite: %v", err)
	}
	return site, p
}

// TestNavigatorWalk checks head-shift and determinism of the walk
// itself, independent of HTTP.
func TestNavigatorWalk(t *testing.T) {
	site, p := testSite(t)
	nav, err := NewNavigator(site, p)
	if err != nil {
		t.Fatalf("NewNavigator: %v", err)
	}
	// Same seed, same walk.
	walk := func(seed int64, shift int) []int {
		rng := rand.New(rand.NewSource(seed))
		var pages []int
		cur, _ := nav.Start(rng, shift)
		pages = append(pages, cur)
		for i := 0; i < 20; i++ {
			next, ok := nav.Next(rng, cur, shift)
			if !ok {
				break
			}
			cur = next
			pages = append(pages, cur)
		}
		return pages
	}
	a, b := walk(5, 0), walk(5, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d: %v vs %v", i, a, b)
		}
	}
	// Head shift moves session heads off the unshifted entry set: with
	// full head bias, unshifted heads come from the top EntryCount
	// pages, shifted heads from a disjoint window.
	p2 := p
	p2.PopularHeadBias = 1
	nav2, err := NewNavigator(site, p2)
	if err != nil {
		t.Fatalf("NewNavigator: %v", err)
	}
	rng := rand.New(rand.NewSource(9))
	topSet := map[int]bool{}
	for _, idx := range nav2.byWeight[:p.EntryCount] {
		topSet[idx] = true
	}
	for i := 0; i < 50; i++ {
		head, _ := nav2.Start(rng, 0)
		if !topSet[head] {
			t.Fatalf("unshifted head %d outside the entry set", head)
		}
		shifted, _ := nav2.Start(rng, p.EntryCount)
		if topSet[shifted] {
			t.Fatalf("shifted head %d still in the unshifted entry set", shifted)
		}
	}
}
