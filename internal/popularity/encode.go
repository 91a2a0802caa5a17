package popularity

import (
	"fmt"
	"io"
	"sort"

	"pbppm/internal/markov"
)

// Encode serializes the ranking — its grade scale and every URL's
// count, in URL order, as markov.WireWriter fields — so the same
// ranking always encodes to the same bytes. A zero-value ranking is
// written with the paper's scale, which is what it grades by.
func (rk *Ranking) Encode(w io.Writer) error {
	base, grades := rk.Scale()
	var e markov.WireWriter
	e.Float64(base)
	e.Uint32(uint32(grades))
	urls := make([]string, 0, len(rk.counts))
	for u := range rk.counts {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	e.Uint32(uint32(len(urls)))
	for _, u := range urls {
		e.String(u)
		e.Int64(rk.counts[u])
	}
	_, err := e.WriteTo(w)
	return err
}

// DecodeRanking reads a ranking written by Encode. It rejects what
// NewRankingWithScale and Observe would refuse — a base that is not
// above 1 (NaN included), fewer than one grade, a negative count — and
// URLs out of order or repeated, so an accepted image re-encodes to
// the same bytes.
func DecodeRanking(r io.Reader) (*Ranking, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("popularity: decoding ranking: %w", err)
	}
	wr := markov.NewWireReader(data)
	rk := &Ranking{base: wr.Float64(), grades: int(wr.Uint32())}
	if !(rk.base > 1) || rk.grades < 1 {
		wr.Fail("invalid grade scale: base %v, %d grades", rk.base, rk.grades)
	}
	n := wr.Count(4 + 8)
	rk.counts = make(map[string]int64, n)
	prev := ""
	for i := 0; i < n && wr.Err() == nil; i++ {
		u, c := wr.String(), wr.Int64()
		switch {
		case i > 0 && u <= prev:
			wr.Fail("URL %q out of order", u)
		case c < 0:
			wr.Fail("negative count %d for %q", c, u)
		}
		prev = u
		rk.counts[u] = c
		rk.max = max(rk.max, c)
	}
	if err := wr.Close(); err != nil {
		return nil, fmt.Errorf("popularity: decoding ranking: %w", err)
	}
	return rk, nil
}
