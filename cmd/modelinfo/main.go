// Command modelinfo inspects a saved prediction model: a snapshot
// envelope as written by prefetchsim -save-model or served by a
// publisher's /snapshot endpoint. It prints the envelope version, the
// model kind, node and leaf counts, depth histogram, memory estimate,
// the ranking's size, and the hottest root branches.
//
// Usage:
//
//	modelinfo [-top N] model.snap
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	// The model packages register their snapshot decoders in init.
	_ "pbppm/internal/core"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	_ "pbppm/internal/ppm"
)

func main() {
	top := flag.Int("top", 10, "hot branches to list")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: modelinfo [-top N] model.snap")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *top, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "modelinfo: %v\n", err)
		os.Exit(1)
	}
}

// run decodes the envelope at path and writes its report to w. Model
// statistics go through markov.StatsOf, the implementation shared with
// the benchmark artifacts and the server's model-health gauges.
func run(path string, top int, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	snap, err := maintain.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: snapshot version %d, kind %s, model %s\n", path, snap.Version, snap.Kind, snap.Model.Name())
	st, ok := markov.StatsOf(snap.Model)
	if !ok {
		return fmt.Errorf("model %s exposes no prediction arena", snap.Model.Name())
	}
	fmt.Fprint(w, st)
	if snap.Ranking != nil {
		fmt.Fprintf(w, "ranking: %d URLs\n", snap.Ranking.Len())
	}
	if ah, ok := snap.Model.(markov.ArenaHolder); ok && top > 0 {
		fmt.Fprintln(w, "hot branches:")
		for _, b := range ah.Arena().TopBranches(top) {
			fmt.Fprintf(w, "  %-40s %.3f\n", b.URL, b.Probability)
		}
	}
	return nil
}
