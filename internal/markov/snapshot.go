// Frozen-model serialization: the piece that lets one process train a
// model and every other process serve it.
//
// A published snapshot is more than the arena image — PB-PPM's frozen
// model also carries its precomputed rule-3 links, a frozen tree its
// threshold and height clamp — so shipping a model between processes
// needs a self-describing envelope, not just Arena.Bytes. FrozenEncoder
// is that envelope's producer half: a frozen predictor names its
// concrete kind and writes its full serving state. The decoder half is
// a registry keyed by kind (the same shape as image.RegisterFormat),
// so generic distribution code — the maintainer's snapshot publisher,
// a follower's poll loop — moves models around without a type switch
// over every model package.
//
// Model packages register their decoders in init; a process can only
// decode kinds whose packages it links (prefetchd links core, ppm, and
// lrs transitively through its model factory imports).
package markov

import (
	"fmt"
	"io"
	"sort"
)

// FrozenEncoder is implemented by frozen predictors that can serialize
// their complete serving state for another process to revive. The
// encoded form contains the arena image verbatim (host-endian, guarded
// by the header's byte-order mark) plus whatever model-specific state
// serving needs, written as WireWriter fields; DecodeFrozenModel
// revives it through the decoder registered for Kind.
type FrozenEncoder interface {
	Predictor
	// FrozenKind names the concrete frozen representation, e.g.
	// "core/pbppm". It keys the decoder registry and travels inside
	// the snapshot envelope.
	FrozenKind() string
	// EncodeFrozen writes the model's full serving state.
	EncodeFrozen(w io.Writer) error
}

// FrozenDecoder revives one frozen-model kind from its encoded form.
// Implementations must validate everything they read (a snapshot may
// arrive truncated or corrupted over the network) and return an error
// rather than panic, must not retain data, and must accept only what
// the encoder writes, so an accepted payload re-encodes to the same
// bytes.
type FrozenDecoder func(data []byte) (Predictor, error)

// frozenDecoders is written only by init-time registration, which
// happens before any decode, so reads need no lock.
var frozenDecoders = make(map[string]FrozenDecoder)

// RegisterFrozenDecoder registers the decoder for a frozen-model kind.
// Model packages must call it from init; re-registering a kind panics
// (two packages claiming one kind is a programmer error).
func RegisterFrozenDecoder(kind string, fn FrozenDecoder) {
	if kind == "" || fn == nil {
		panic("markov: RegisterFrozenDecoder with empty kind or nil decoder")
	}
	if _, dup := frozenDecoders[kind]; dup {
		panic(fmt.Sprintf("markov: frozen decoder for kind %q registered twice", kind))
	}
	frozenDecoders[kind] = fn
}

// DecodeFrozenModel revives a frozen model of the named kind from data.
// Unknown kinds — a model package the process does not link, or a
// corrupted envelope — return an error listing what is registered.
func DecodeFrozenModel(kind string, data []byte) (Predictor, error) {
	fn := frozenDecoders[kind]
	if fn == nil {
		known := make([]string, 0, len(frozenDecoders))
		for k := range frozenDecoders {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("markov: no frozen decoder for kind %q (registered: %v)", kind, known)
	}
	return fn(data)
}

// FrozenTreeKind identifies the generic single-tree frozen model
// (standard PPM without blending, LRS) in snapshot envelopes.
const FrozenTreeKind = "markov/frozen-tree"

var _ FrozenEncoder = (*FrozenTree)(nil)

// FrozenKind implements FrozenEncoder.
func (f *FrozenTree) FrozenKind() string { return FrozenTreeKind }

// EncodeFrozen implements FrozenEncoder: name, threshold, height clamp,
// and the arena image.
func (f *FrozenTree) EncodeFrozen(w io.Writer) error {
	var e WireWriter
	e.String(f.name)
	e.Float64(f.threshold)
	e.Uint32(uint32(f.clampHeight))
	e.Arena(f.arena)
	_, err := e.WriteTo(w)
	return err
}

func init() {
	RegisterFrozenDecoder(FrozenTreeKind, func(data []byte) (Predictor, error) {
		r := NewWireReader(data)
		name := r.String()
		threshold := r.Float64()
		clampHeight := r.Uint32()
		a := r.Arena()
		if err := r.Close(); err != nil {
			return nil, fmt.Errorf("markov: decoding frozen tree: %w", err)
		}
		return NewFrozenTree(a, name, threshold, int(clampHeight)), nil
	})
}
