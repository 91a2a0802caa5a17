package core

import (
	"fmt"
	"io"
	"math"
	"sort"

	"pbppm/internal/markov"
)

// FrozenKind identifies the frozen PB-PPM snapshot in snapshot
// envelopes.
const FrozenKind = "core/pbppm"

var _ markov.FrozenEncoder = (*Frozen)(nil)

// FrozenKind implements markov.FrozenEncoder.
func (f *Frozen) FrozenKind() string { return FrozenKind }

// EncodeFrozen implements markov.FrozenEncoder. The image holds
// everything serving needs: the name, the threshold, the freeze-time
// node count (the paper's space metric, which counts links the
// threshold already removed from the table below), the precomputed
// rule-3 link predictions in heading-URL order, and the arena
// verbatim. The popularity ranking is deliberately not part of the
// model image; the snapshot envelope carries it beside the model so
// hint grading travels with the predictor (see maintain's snapshot
// wire format).
func (f *Frozen) EncodeFrozen(w io.Writer) error {
	var e markov.WireWriter
	e.String(f.name)
	e.Float64(f.threshold)
	e.Int64(int64(f.nodeCount))
	heads := make([]string, 0, len(f.links))
	for url := range f.links {
		heads = append(heads, url)
	}
	sort.Strings(heads)
	e.Uint32(uint32(len(heads)))
	for _, url := range heads {
		e.String(url)
		linked := f.links[url]
		e.Uint32(uint32(len(linked)))
		for _, p := range linked {
			e.String(p.URL)
			e.Float64(p.Probability)
			e.Uint32(uint32(p.Order))
		}
	}
	e.Arena(f.arena)
	_, err := e.WriteTo(w)
	return err
}

// Smallest encodings of a link-table entry and of one linked
// prediction, bounding the counts a decoder accepts.
const (
	minLinkEntry = 4 + 4
	minLinked    = 4 + 8 + 4
)

func init() {
	markov.RegisterFrozenDecoder(FrozenKind, func(data []byte) (markov.Predictor, error) {
		r := markov.NewWireReader(data)
		f := &Frozen{name: r.String(), threshold: r.Float64()}
		if n := r.Int64(); n < 0 {
			r.Fail("negative node count %d", n)
		} else {
			f.nodeCount = int(n)
		}
		heads := r.Count(minLinkEntry)
		f.links = make(map[string][]markov.Prediction, heads)
		prev := ""
		for i := 0; i < heads && r.Err() == nil; i++ {
			head := r.String()
			if i > 0 && head <= prev {
				r.Fail("link heading %q out of order", head)
			}
			prev = head
			linked := make([]markov.Prediction, r.Count(minLinked))
			if len(linked) == 0 {
				r.Fail("empty link list under %q", head)
			}
			for j := range linked {
				p := markov.Prediction{URL: r.String(), Probability: r.Float64(), Order: int(r.Uint32())}
				if r.Err() == nil && (p.URL == "" || math.IsNaN(p.Probability) || p.Probability < 0) {
					r.Fail("corrupt link candidate %+v under %q", p, head)
				}
				linked[j] = p
			}
			f.links[head] = linked
		}
		f.arena = r.Arena()
		if err := r.Close(); err != nil {
			return nil, fmt.Errorf("core: decoding frozen model: %w", err)
		}
		return f, nil
	})
}
