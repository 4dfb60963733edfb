package parsec

import (
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/spin"
	"adhocrace/internal/vm"
)

func TestThirteenModels(t *testing.T) {
	models := Models()
	if len(models) != 13 {
		t.Fatalf("got %d models, want 13", len(models))
	}
	if len(WithoutAdhoc()) != 5 || len(WithAdhoc()) != 8 {
		t.Errorf("adhoc split = %d/%d, want 5/8",
			len(WithoutAdhoc()), len(WithAdhoc()))
	}
	if _, ok := ByName("x264"); !ok {
		t.Error("ByName(x264) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
}

func TestInventoryMatchesPaper(t *testing.T) {
	// Slide 26: parallelization model and LOC per program.
	want := map[string]struct {
		model string
		loc   int
	}{
		"blackscholes": {"POSIX", 812}, "swaptions": {"POSIX", 4029},
		"fluidanimate": {"POSIX", 3689}, "canneal": {"POSIX", 2931},
		"freqmine": {"OpenMP", 10279}, "vips": {"GLIB", 1255},
		"bodytrack": {"POSIX", 9735}, "facesim": {"POSIX", 1391},
		"ferret": {"POSIX", 2706}, "x264": {"POSIX", 1494},
		"dedup": {"POSIX", 3228}, "streamcluster": {"POSIX", 40393},
		"raytrace": {"POSIX", 13302},
	}
	for _, m := range Models() {
		w := want[m.Name]
		if m.ParallelModel != w.model || m.LOC != w.loc {
			t.Errorf("%s: %s/%d, want %s/%d", m.Name, m.ParallelModel, m.LOC, w.model, w.loc)
		}
	}
}

func TestModelsBuildValidateTerminate(t *testing.T) {
	for _, m := range Models() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			p := m.Build()
			if err := p.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			res, err := vm.Run(p, vm.Options{Seed: 99})
			if err != nil {
				t.Fatalf("run: %v (steps=%d)", err, res.Steps)
			}
		})
	}
}

func TestAdhocModelsClassifyLoops(t *testing.T) {
	for _, m := range WithAdhoc() {
		ins := spin.Analyze(m.Build(), 7)
		if ins.NumLoops() == 0 {
			t.Errorf("%s: no spinning read loops classified", m.Name)
		}
	}
}

func TestCleanProgramsCleanEverywhere(t *testing.T) {
	for _, name := range []string{"blackscholes", "swaptions", "fluidanimate", "canneal"} {
		m, _ := ByName(name)
		for _, cfg := range detect.PaperTools(7) {
			rep, _, err := detect.Prepare(m.Build()).Run(cfg, 1, detect.RunOpts{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.Name, err)
			}
			if rep.HasWarnings() {
				t.Errorf("%s/%s: %d warnings on a clean program", name, cfg.Name, len(rep.Warnings))
			}
		}
	}
}

// TestSpinFeatureEliminatesVips pins one full elimination case end to end.
func TestSpinFeatureEliminatesVips(t *testing.T) {
	m, _ := ByName("vips")
	lib, _, err := detect.Prepare(m.Build()).Run(detect.HelgrindPlusLib(), 1, detect.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if lib.RacyContexts() < 40 {
		t.Errorf("vips under lib: %d contexts, expected ~51 false positives", lib.RacyContexts())
	}
	spinRep, _, err := detect.Prepare(m.Build()).Run(detect.HelgrindPlusLibSpin(7), 1, detect.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if spinRep.HasWarnings() {
		t.Errorf("vips under lib+spin: %d warnings, want 0", len(spinRep.Warnings))
	}
	if spinRep.SpinEdges == 0 {
		t.Error("no edges injected on vips")
	}
}
