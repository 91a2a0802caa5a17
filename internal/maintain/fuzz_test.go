package maintain

import (
	"bytes"
	"testing"

	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
)

// fuzzSeedSnapshots returns a valid image of every registered model
// kind — PB-PPM, the plain frozen tree, the blended PPM — each with and
// without a ranking.
func fuzzSeedSnapshots(f *testing.F) [][]byte {
	m := trainedMaintainer(f, nil)
	tree := ppm.New(ppm.Config{Height: 3})
	blend := ppm.New(ppm.Config{BlendOrders: true})
	for _, p := range []markov.Predictor{tree, blend} {
		p.TrainSequence([]string{"/home", "/news", "/sports"})
		p.TrainSequence([]string{"/home", "/weather"})
	}
	var seeds [][]byte
	for _, model := range []markov.Predictor{m.Predictor(), tree.Freeze(), blend.Freeze()} {
		for _, rank := range []*popularity.Ranking{m.Ranking(), nil} {
			var buf bytes.Buffer
			if err := EncodeSnapshot(&buf, 5, model.(markov.FrozenEncoder), rank); err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, buf.Bytes())
		}
	}
	return seeds
}

// FuzzDecodeSnapshot hammers the one model decoder with mutated
// envelopes. Fuzzed images mostly die at the checksum, so the target
// reseals every input first to drive the section decoders too. The
// decoder must never panic — images come off disks and sockets — and
// any image it accepts must re-encode to the same bytes: the decoders
// accept only what the encoders write.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, img := range fuzzSeedSnapshots(f) {
		f.Add(img)
		f.Add(img[:len(img)/2])
	}
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, resealed(data)} {
			snap, err := DecodeSnapshot(img)
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := EncodeSnapshot(&buf, snap.Version, snap.Model.(markov.FrozenEncoder), snap.Ranking); err != nil {
				t.Fatalf("re-encoding an accepted image failed: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), img) {
				t.Fatal("accepted image re-encodes to different bytes")
			}
		}
	})
}

// resealed returns a copy of data with a correct trailing checksum.
func resealed(data []byte) []byte {
	img := append([]byte(nil), data...)
	if len(img) >= 8 {
		resealSnapshot(img)
	}
	return img
}
