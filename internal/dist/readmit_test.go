package dist

import (
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
)

// stageInstance returns the only instance of a visible stage.
func stageInstance(t *testing.T, center *Center, name string) core.Instance {
	t.Helper()
	for _, st := range center.Stages() {
		if st.Name() == name {
			return st.Instances()[0]
		}
	}
	t.Fatalf("stage %s not visible", name)
	return nil
}

// TestReadmitDeboostsHighestSurvivorFirst drives re-admission into its
// survivor pass. The returning stage is already at level 0, so shedding its
// own levels cannot help; the survivors spent its reclaimed watts on boosts,
// and one DVFS step must come back from the highest-level survivor — QA,
// though ASR comes first in stage order.
func TestReadmitDeboostsHighestSurvivorFirst(t *testing.T) {
	center, _, proxies := startChaosPipeline(t, chaosOptions())
	model := cmp.DefaultModel()

	// Budget is 3 cores at level 6. IMM drops to level 0, then dies.
	if err := stageInstance(t, center, "IMM").SetLevel(0); err != nil {
		t.Fatal(err)
	}
	proxies[1].Kill()
	if _, err := center.Submit([][]time.Duration{{time.Millisecond}, {time.Millisecond}, {time.Millisecond}}); err == nil {
		t.Fatal("submit through a killed stage succeeded")
	}
	if got := len(center.Quarantined()); got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}

	// The survivors spend the reclaimed watts: ASR to 8, QA to 9. What is
	// left (13.56 − 5.80 − 6.53 = 1.22W) cannot fund IMM's level-0 core
	// (1.91W); lowering QA to 8 frees 0.73W, which is enough.
	asr, qa := stageInstance(t, center, "ASR"), stageInstance(t, center, "QA")
	if err := asr.SetLevel(8); err != nil {
		t.Fatal(err)
	}
	if err := qa.SetLevel(9); err != nil {
		t.Fatal(err)
	}
	if hr := center.Headroom(); hr >= model.Power(0) {
		t.Fatalf("headroom %.3fW already funds the returning stage; the survivor pass would not run", float64(hr))
	}

	proxies[1].Restore("")
	readmitted := false
	for i := 0; i < 40 && !readmitted; i++ {
		center.ProbeNow()
		readmitted = len(center.Quarantined()) == 0
		if !readmitted {
			time.Sleep(25 * time.Millisecond)
		}
	}
	if !readmitted {
		t.Fatalf("stage never re-admitted; healths: %+v", center.Healths())
	}
	if center.Draw() > center.Budget()+1e-9 {
		t.Fatalf("draw %.3fW over budget %.3fW after re-admission", float64(center.Draw()), float64(center.Budget()))
	}
	imm := stageInstance(t, center, "IMM")
	if asr.Level() != 8 || qa.Level() != 8 || imm.Level() != 0 {
		t.Fatalf("levels ASR=%d QA=%d IMM=%d, want one step off QA: 8/8/0", asr.Level(), qa.Level(), imm.Level())
	}
}
