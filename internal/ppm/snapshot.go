package ppm

import (
	"fmt"
	"io"

	"pbppm/internal/markov"
)

// FrozenBlendedKind identifies the frozen BlendOrders snapshot in
// snapshot envelopes. The non-blended variant freezes to the generic
// markov.FrozenTree and travels under markov.FrozenTreeKind.
const FrozenBlendedKind = "ppm/frozen-blended"

var _ markov.FrozenEncoder = (*frozenBlended)(nil)

// FrozenKind implements markov.FrozenEncoder.
func (f *frozenBlended) FrozenKind() string { return FrozenBlendedKind }

// EncodeFrozen implements markov.FrozenEncoder: name, threshold,
// height, and the arena image.
func (f *frozenBlended) EncodeFrozen(w io.Writer) error {
	var e markov.WireWriter
	e.String(f.name)
	e.Float64(f.threshold)
	e.Uint32(uint32(f.height))
	e.Arena(f.arena)
	_, err := e.WriteTo(w)
	return err
}

func init() {
	markov.RegisterFrozenDecoder(FrozenBlendedKind, func(data []byte) (markov.Predictor, error) {
		r := markov.NewWireReader(data)
		f := &frozenBlended{name: r.String(), threshold: r.Float64(), height: int(r.Uint32()), arena: r.Arena()}
		if err := r.Close(); err != nil {
			return nil, fmt.Errorf("ppm: decoding frozen blended model: %w", err)
		}
		return f, nil
	})
}
