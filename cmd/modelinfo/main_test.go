package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbppm/internal/core"
	"pbppm/internal/lrs"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
)

// TestRunReportsEachModelKind saves every freezable model as a snapshot
// envelope and checks that modelinfo reports its kind and the live
// model's tree size.
func TestRunReportsEachModelKind(t *testing.T) {
	rank := popularity.NewRanking()
	sessions := [][]string{
		{"/home", "/news", "/sports"},
		{"/home", "/news", "/weather"},
		{"/home", "/weather"},
	}
	for _, s := range sessions {
		for _, u := range s {
			rank.Observe(u, 1)
		}
	}
	cases := []struct {
		name  string
		model markov.Freezer
		rank  *popularity.Ranking
		kind  string
	}{
		{"pb", core.New(rank, core.Config{}), rank, core.FrozenKind},
		{"ppm", ppm.New(ppm.Config{}), nil, markov.FrozenTreeKind},
		{"blend", ppm.New(ppm.Config{BlendOrders: true}), nil, ppm.FrozenBlendedKind},
		{"lrs", lrs.New(lrs.Config{}), nil, markov.FrozenTreeKind},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			live := c.model.(markov.Predictor)
			for i := 0; i < 2; i++ {
				for _, s := range sessions {
					live.TrainSequence(s)
				}
			}
			want, ok := markov.StatsOf(live)
			if !ok || want.Nodes == 0 {
				t.Fatalf("live %s model has no tree (%d nodes)", c.name, want.Nodes)
			}
			var img bytes.Buffer
			if err := maintain.EncodeSnapshot(&img, 4, c.model.Freeze().(markov.FrozenEncoder), c.rank); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), c.name+".snap")
			if err := os.WriteFile(path, img.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}

			var out bytes.Buffer
			if err := run(path, 2, &out); err != nil {
				t.Fatal(err)
			}
			report := out.String()
			for _, line := range []string{
				fmt.Sprintf("snapshot version 4, kind %s,", c.kind),
				fmt.Sprintf("nodes %d (", want.Nodes),
				"hot branches:\n  /home",
			} {
				if !strings.Contains(report, line) {
					t.Errorf("report lacks %q:\n%s", line, report)
				}
			}
			if hasRanking := strings.Contains(report, "ranking: 4 URLs"); hasRanking != (c.rank != nil) {
				t.Errorf("ranking line present = %v, want %v:\n%s", hasRanking, c.rank != nil, report)
			}
		})
	}
}

// TestRunRejectsNonSnapshot: a file that is not an envelope is an
// error, not a report.
func TestRunRejectsNonSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not a snapshot envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, 1, &bytes.Buffer{}); err == nil {
		t.Fatal("junk file reported as a model")
	}
}
