package experiments

import "testing"

// TestFullScaleFigure5Shapes logs the two panels of the proxy
// experiment at paper scale and asserts the paper's §5 proxy trends;
// guarded by -short.
func TestFullScaleFigure5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale proxy experiment skipped in -short mode")
	}
	w, err := NASAWorkload()
	if err != nil {
		t.Fatal(err)
	}
	f, err := RunFigure5(w, Figure5Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.String())
	first, last := 0, len(f.ClientCounts)-1

	for _, m := range f.Models() {
		// Hit ratios rise substantially with the client population.
		lo, hi := f.Results[first][m].HitRatio(), f.Results[last][m].HitRatio()
		if hi < lo+0.15 {
			t.Errorf("%s hit ratio did not climb: %.3f -> %.3f", m, lo, hi)
		}
		// Traffic increments fall as clients share the proxy (curves
		// already near the floor may wobble within a point or two).
		tLo, tHi := f.Results[first][m].TrafficIncrease(), f.Results[last][m].TrafficIncrease()
		if tHi > tLo+0.02 {
			t.Errorf("%s traffic rose with clients: %.3f -> %.3f", m, tLo, tHi)
		}
	}
	// PB-4KB moves the least traffic (the paper's lowest curve).
	pb4 := f.Results[last][ModelPB4KB].TrafficIncrease()
	for _, m := range []string{ModelPPM, ModelLRS, ModelPB10KB} {
		if pb4 >= f.Results[last][m].TrafficIncrease() {
			t.Errorf("PB-4KB traffic %.3f not below %s", pb4, m)
		}
	}
	// PB-10KB's hit curve stays within a hair of the best curve while
	// moving less traffic than the 10KB-threshold context models at
	// scale (the paper's cost-effectiveness point).
	best := 0.0
	for _, m := range f.Models() {
		if hr := f.Results[last][m].HitRatio(); hr > best {
			best = hr
		}
	}
	if best-f.Results[last][ModelPB10KB].HitRatio() > 0.02 {
		t.Errorf("PB-10KB hit %.3f trails the best %.3f by more than 2 points",
			f.Results[last][ModelPB10KB].HitRatio(), best)
	}
	if f.Results[last][ModelPB10KB].TrafficIncrease() >= f.Results[last][ModelPPM].TrafficIncrease() {
		t.Errorf("PB-10KB traffic %.3f not below standard %.3f at 32 clients",
			f.Results[last][ModelPB10KB].TrafficIncrease(),
			f.Results[last][ModelPPM].TrafficIncrease())
	}
}
