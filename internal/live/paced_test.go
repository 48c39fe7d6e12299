package live

import (
	"sync/atomic"
	"testing"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/query"
	"powerchief/internal/stage"
)

// oneStage builds a single-stage cluster of one instance on a profile whose
// speed depends on the level.
func oneStage(t *testing.T, scale float64) *Cluster {
	t.Helper()
	c, err := NewCluster(Options{Budget: 200, TimeScale: scale}, []StageSpec{
		{Name: "S", Kind: stage.Pipeline, Profile: cmp.NewRooflineProfile(0.15), Instances: 1, Level: cmp.MidLevel},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestServingIsModelledWorkAtHighCompression pins the serve time the cluster
// records to the model — work × ExecRatio(level) — even at a time scale
// where a wall-clock sleep would overshoot the work many times over.
func TestServingIsModelledWorkAtHighCompression(t *testing.T) {
	c := oneStage(t, 1e-5)
	done := make(chan *query.Query, 8)
	c.OnComplete(func(q *query.Query) { done <- q })
	work := 300 * time.Millisecond
	want := time.Duration(float64(work) * cmp.NewRooflineProfile(0.15).ExecRatio(cmp.MidLevel))
	for i := 0; i < 8; i++ {
		if err := c.Submit(query.New(query.ID(i), c.Now(), [][]time.Duration{{work}})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		var q *query.Query
		select {
		case q = <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("queries did not complete")
		}
		if got := q.Records[0].Serving(); got != want {
			t.Errorf("query %d served in %v, want work × ExecRatio = %v", q.ID, got, want)
		}
	}
}

// TestSetLevelRetimesQueryInFlight raises the level of a busy instance: the
// query already in service finishes sooner than it would at the old level.
func TestSetLevelRetimesQueryInFlight(t *testing.T) {
	c := oneStage(t, 0.01)
	done := make(chan *query.Query, 1)
	c.OnComplete(func(q *query.Query) { done <- q })
	work := 20 * time.Second // ≈150 ms of wall time at the old level
	if err := c.Submit(query.New(1, c.Now(), [][]time.Duration{{work}})); err != nil {
		t.Fatal(err)
	}
	in := c.StageByName("S").Instances()[0]
	if in.QueueLen() != 1 {
		t.Fatalf("queue length %d, want the query in service", in.QueueLen())
	}
	time.Sleep(10 * time.Millisecond) // let the query get under way
	if err := in.SetLevel(cmp.MaxLevel); err != nil {
		t.Fatal(err)
	}
	var q *query.Query
	select {
	case q = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("query did not complete")
	}
	p := c.StageByName("S").Profile()
	atMid := time.Duration(float64(work) * p.ExecRatio(cmp.MidLevel))
	atMax := time.Duration(float64(work) * p.ExecRatio(cmp.MaxLevel))
	if got := q.Records[0].Serving(); got < atMax || got > atMid-(atMid-atMax)/4 {
		t.Errorf("served in %v; want it re-timed toward %v at the new level, not %v", got, atMax, atMid)
	}
}

// TestCallbackMaySubmit chains queries from inside OnComplete: callbacks run
// after the cluster lock is released, so re-entering Submit cannot deadlock.
func TestCallbackMaySubmit(t *testing.T) {
	c := oneStage(t, 0.01)
	const n = 20
	var completed atomic.Int64
	all := make(chan struct{})
	c.OnComplete(func(q *query.Query) {
		switch k := completed.Add(1); {
		case k < n:
			if err := c.Submit(query.New(q.ID+1, c.Now(), [][]time.Duration{{time.Millisecond}})); err != nil {
				t.Error(err)
			}
		case k == n:
			close(all)
		}
	})
	if err := c.Submit(query.New(0, c.Now(), [][]time.Duration{{time.Millisecond}})); err != nil {
		t.Fatal(err)
	}
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatalf("%d of %d chained queries completed", completed.Load(), n)
	}
}

// TestRoundTripAllocations bounds the allocations of one submitted and
// completed query: the query, its record and the completion event.
func TestRoundTripAllocations(t *testing.T) {
	c := oneStage(t, 1e-5)
	done := make(chan struct{})
	c.OnComplete(func(*query.Query) { done <- struct{}{} })
	work := [][]time.Duration{{time.Millisecond}}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Submit(query.New(1, c.Now(), work)); err != nil {
			t.Fatal(err)
		}
		<-done
	})
	if allocs > 3 {
		t.Errorf("%.1f allocations per query, want at most 3", allocs)
	}
}

// TestConcurrentEntryPoints drives every kind of entry point from several
// goroutines at once — submits, DVFS, clone and withdraw, reads — while the
// pacer completes queries: none may be lost, and each keeps one record per
// stage.
func TestConcurrentEntryPoints(t *testing.T) {
	c := twoStageCluster(t, 2)
	const submitters, each = 4, 100
	var completed atomic.Int64
	all := make(chan struct{})
	c.OnComplete(func(q *query.Query) {
		if len(q.Records) != 2 {
			t.Errorf("query %d has %d records, want 2", q.ID, len(q.Records))
		}
		if completed.Add(1) == submitters*each {
			close(all)
		}
	})
	stop := make(chan struct{})
	controlled := make(chan struct{})
	go func() {
		defer close(controlled)
		st := c.StageByName("A")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ins := st.Instances()
			_ = ins[i%len(ins)].SetLevel(cmp.Level(i % cmp.NumLevels))
			if len(ins) < 3 {
				_, _ = st.Clone(ins[0])
			} else {
				_ = st.Withdraw(ins[len(ins)-1], nil)
			}
			_, _ = c.Draw(), c.InFlight()
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for g := 0; g < submitters; g++ {
		go func(g int) {
			for i := 0; i < each; i++ {
				q := query.New(query.ID(g*each+i), c.Now(), workFor(5*time.Millisecond, 2*time.Millisecond))
				if err := c.Submit(q); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Errorf("%d of %d queries completed", completed.Load(), submitters*each)
	}
	close(stop)
	<-controlled
	if got := c.Completed(); got != submitters*each {
		t.Errorf("Completed = %d, want %d", got, submitters*each)
	}
}
