package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/core"
	"powerchief/internal/query"
	"powerchief/internal/stage"
)

// fastScale compresses virtual time 100×: 1 virtual second = 10ms wall.
// Stronger compression lets time.Sleep granularity dominate the virtual
// clock.
const fastScale = 0.01

var flat = cmp.NewRooflineProfile(1)

func twoStageCluster(t *testing.T, instances int) *Cluster {
	t.Helper()
	c, err := NewCluster(Options{Budget: 200, TimeScale: fastScale}, []StageSpec{
		{Name: "A", Kind: stage.Pipeline, Profile: flat, Instances: instances, Level: cmp.MidLevel},
		{Name: "B", Kind: stage.Pipeline, Profile: flat, Instances: 1, Level: cmp.MidLevel},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// workFor builds a work matrix for the two-stage cluster.
func workFor(a, b time.Duration) [][]time.Duration {
	return [][]time.Duration{{a}, {b}}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestQueryFlowsThroughPipeline(t *testing.T) {
	c := twoStageCluster(t, 1)
	var done atomic.Uint64
	var mu sync.Mutex
	var last *query.Query
	c.OnComplete(func(q *query.Query) {
		mu.Lock()
		last = q
		mu.Unlock()
		done.Add(1)
	})
	q := query.New(1, c.Now(), workFor(50*time.Millisecond, 30*time.Millisecond))
	if err := c.Submit(q); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return done.Load() == 1 })
	mu.Lock()
	defer mu.Unlock()
	if last != q || !q.Completed() {
		t.Fatal("query did not complete")
	}
	if len(q.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(q.Records))
	}
	for _, r := range q.Records {
		if err := r.Validate(); err != nil {
			t.Error(err)
		}
	}
	// Virtual latency should be roughly the service demand (80ms) — allow
	// generous scheduler slack since wall time is compressed 1000×.
	if lat := q.Latency(); lat < 80*time.Millisecond || lat > 3*time.Second {
		t.Errorf("latency = %v, want ≈80ms (virtual)", lat)
	}
}

func TestManyQueriesAllComplete(t *testing.T) {
	c := twoStageCluster(t, 2)
	var done atomic.Uint64
	c.OnComplete(func(q *query.Query) { done.Add(1) })
	const n = 200
	for i := 0; i < n; i++ {
		q := query.New(query.ID(i), c.Now(), workFor(20*time.Millisecond, 10*time.Millisecond))
		if err := c.Submit(q); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return done.Load() == n })
	if c.Completed() != n || c.InFlight() != 0 {
		t.Errorf("completed=%d inflight=%d", c.Completed(), c.InFlight())
	}
}

func TestLiveCloneAndWithdraw(t *testing.T) {
	c := twoStageCluster(t, 1)
	st := c.StageByName("A")
	ins := st.Instances()
	if len(ins) != 1 {
		t.Fatal("expected one instance")
	}
	clone, err := st.Clone(ins[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Instances()) != 2 {
		t.Fatal("clone not active")
	}
	if clone.Level() != ins[0].Level() {
		t.Error("clone level mismatch")
	}
	if err := st.Withdraw(clone, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return len(st.Instances()) == 1 })
	// The last instance cannot be withdrawn.
	if err := st.Withdraw(st.Instances()[0], nil); err == nil {
		t.Error("withdrew the last active instance")
	}
}

func TestLiveSetLevelBudget(t *testing.T) {
	m := cmp.DefaultModel()
	c, err := NewCluster(Options{Budget: m.Power(cmp.MidLevel), TimeScale: fastScale}, []StageSpec{
		{Name: "A", Kind: stage.Pipeline, Profile: flat, Instances: 1, Level: cmp.MidLevel},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := c.StageByName("A").Instances()[0]
	if err := in.SetLevel(cmp.MaxLevel); err == nil {
		t.Error("budget-exceeding DVFS accepted")
	}
	if err := in.SetLevel(0); err != nil {
		t.Errorf("lowering failed: %v", err)
	}
	if in.Level() != 0 {
		t.Error("level not applied")
	}
}

func TestLiveFanOutJoin(t *testing.T) {
	c, err := NewCluster(Options{Budget: 200, TimeScale: fastScale}, []StageSpec{
		{Name: "leaf", Kind: stage.FanOut, Profile: flat, Instances: 3, Level: cmp.MidLevel},
		{Name: "agg", Kind: stage.Pipeline, Profile: flat, Instances: 1, Level: cmp.MidLevel},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var done atomic.Uint64
	c.OnComplete(func(q *query.Query) { done.Add(1) })
	q := query.New(1, c.Now(), [][]time.Duration{
		{10 * time.Millisecond, 60 * time.Millisecond, 20 * time.Millisecond},
		{5 * time.Millisecond},
	})
	if err := c.Submit(q); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return done.Load() == 1 })
	if len(q.Records) != 4 {
		t.Errorf("records = %d, want 4 (3 branches + agg)", len(q.Records))
	}
	// Fan-out stages refuse scaling.
	leaf := c.StageByName("leaf")
	if _, err := leaf.Clone(leaf.Instances()[0]); err == nil {
		t.Error("cloned a fan-out instance")
	}
}

func TestControllerDrivesPolicy(t *testing.T) {
	c := twoStageCluster(t, 1)
	agg := core.NewAggregator(25*time.Second, c.Now)
	c.OnComplete(agg.Ingest)

	cfg := core.DefaultConfig()
	cfg.WithdrawInterval = 0
	policy := core.NewPowerChief(cfg)
	ctl := StartController(c, agg, policy, 5*time.Second)
	defer ctl.Stop()

	// Overload stage A by construction, so the controller has a bottleneck
	// to boost: each burst of 40 queries brings 4.8 virtual seconds of
	// stage-A work, far more than the ≈0.1-1 virtual seconds a 1 ms wall
	// sleep lasts even under -race.
	var done atomic.Uint64
	c.OnComplete(func(q *query.Query) { done.Add(1) })
	for i := 0; i < 400; i++ {
		q := query.New(query.ID(i), c.Now(), workFor(120*time.Millisecond, 5*time.Millisecond))
		if err := c.Submit(q); err != nil {
			t.Fatal(err)
		}
		if i%40 == 39 {
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(t, 20*time.Second, func() bool { return done.Load() == 400 })
	acted := false
	for _, out := range ctl.Outcomes() {
		if out.Kind != core.BoostNone {
			acted = true
		}
	}
	if !acted {
		t.Error("controller never boosted under overload")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(Options{Budget: 0}, nil); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewCluster(Options{Budget: 10}, nil); err == nil {
		t.Error("no stages accepted")
	}
	if _, err := NewCluster(Options{Budget: 10, TimeScale: -1}, []StageSpec{{}}); err == nil {
		t.Error("negative time scale accepted")
	}
	if _, err := NewCluster(Options{Budget: 10}, []StageSpec{{Name: "A"}}); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := NewCluster(Options{Budget: 200}, []StageSpec{
		{Name: "A", Kind: stage.Pipeline, Profile: flat, Instances: 1, Level: cmp.MidLevel},
		{Name: "A", Kind: stage.Pipeline, Profile: flat, Instances: 1, Level: cmp.MidLevel},
	}); err == nil {
		t.Error("duplicate stage names accepted")
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	c := twoStageCluster(t, 1)
	c.Close()
	if err := c.Submit(query.New(1, 0, workFor(time.Millisecond, time.Millisecond))); err == nil {
		t.Error("submit after close succeeded")
	}
	c.Close() // idempotent
}

func TestSubmitShapeMismatch(t *testing.T) {
	c := twoStageCluster(t, 1)
	if err := c.Submit(query.New(1, 0, [][]time.Duration{{time.Millisecond}})); err == nil {
		t.Error("work shape mismatch accepted")
	}
}
