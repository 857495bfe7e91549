package store

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"overlapsim/internal/core"
	"overlapsim/internal/sweep"
)

// testEntry returns a distinguishable cache entry and its canonical
// fingerprint.
func testEntry(t testing.TB, batch int) (string, *core.Result) {
	t.Helper()
	res := &core.Result{Config: core.Config{Batch: batch}}
	key, err := res.Config.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return key, res
}

// failCache is a sweep.Cache whose writes always fail.
type failCache struct{}

func (failCache) Get(string) (*core.Result, bool) { return nil, false }
func (failCache) Put(string, *core.Result) error  { return errors.New("disk full") }

func TestTieredPromotesOnLowerTierHit(t *testing.T) {
	fast, slow := sweep.NewMemCache(), sweep.NewMemCache()
	tiered := NewTiered(fast, slow)
	key, res := testEntry(t, 8)

	if err := slow.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := tiered.Get(key)
	if !ok || got.Config.Batch != 8 {
		t.Fatalf("Get = %+v, %v; want hit with batch 8", got, ok)
	}
	// The hit must have been promoted into the faster tier.
	if _, ok := fast.Get(key); !ok {
		t.Error("lower-tier hit was not promoted into the faster tier")
	}
}

func TestTieredWritesThroughAllTiers(t *testing.T) {
	fast, slow := sweep.NewMemCache(), sweep.NewMemCache()
	tiered := NewTiered(fast, slow)
	key, res := testEntry(t, 16)

	if err := tiered.Put(key, res); err != nil {
		t.Fatal(err)
	}
	for i, c := range []*sweep.MemCache{fast, slow} {
		if _, ok := c.Get(key); !ok {
			t.Errorf("tier %d missing entry after write-through", i)
		}
	}
}

// A failing tier surfaces its error but never blocks the tiers that
// succeeded: the entry is still served.
func TestTieredPartialWriteFailure(t *testing.T) {
	mem := sweep.NewMemCache()
	tiered := NewTiered(mem, failCache{})
	key, res := testEntry(t, 32)

	if err := tiered.Put(key, res); err == nil {
		t.Fatal("Put with a failing tier returned nil error")
	}
	if _, ok := tiered.Get(key); !ok {
		t.Error("entry lost because one tier failed")
	}
}

func TestTieredSkipsNilBackends(t *testing.T) {
	mem := sweep.NewMemCache()
	if n := len(NewTiered(nil, mem, nil).tiers); n != 1 {
		t.Errorf("NewTiered kept %d tiers, want 1 (nils skipped)", n)
	}
}

// N concurrent callers of the same key run the computation exactly once:
// one leads, the rest coalesce onto its result.
func TestFlightCoalescesConcurrentCallers(t *testing.T) {
	f := NewFlight()
	key, want := testEntry(t, 8)

	const waiters = 4
	entered := make(chan struct{})
	release := make(chan struct{})
	runs := 0
	leaderDone := make(chan error, 1)
	go func() {
		_, waited, err := f.Do(context.Background(), key, func() (*core.Result, error) {
			runs++
			close(entered)
			<-release
			return want, nil
		})
		if waited {
			err = errors.Join(err, errors.New("leader reported waited=true"))
		}
		leaderDone <- err
	}()
	<-entered

	type out struct {
		res    *core.Result
		waited bool
		err    error
	}
	outs := make(chan out, waiters)
	base := mFlightWaiters.Value()
	for i := 0; i < waiters; i++ {
		go func() {
			res, waited, err := f.Do(context.Background(), key, func() (*core.Result, error) {
				return nil, errors.New("waiter ran the computation")
			})
			outs <- out{res, waited, err}
		}()
	}
	// The waiter counter ticks before blocking on the leader, so once it
	// reaches the full count every caller is parked and the leader can
	// finish.
	for mFlightWaiters.Value() < base+waiters {
		runtime.Gosched()
	}
	close(release)

	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	for i := 0; i < waiters; i++ {
		o := <-outs
		if o.err != nil {
			t.Fatalf("waiter: %v", o.err)
		}
		if !o.waited {
			t.Error("coalesced caller reported waited=false")
		}
		if o.res != want {
			t.Errorf("waiter got %+v, want the leader's result", o.res)
		}
	}
	if runs != 1 {
		t.Errorf("computation ran %d times, want 1", runs)
	}
}

// Flight is not a cache: once a call completes, the next caller runs the
// computation again.
func TestFlightSequentialCallsRunAgain(t *testing.T) {
	f := NewFlight()
	key, res := testEntry(t, 8)
	runs := 0
	for i := 0; i < 2; i++ {
		_, waited, err := f.Do(context.Background(), key, func() (*core.Result, error) {
			runs++
			return res, nil
		})
		if err != nil || waited {
			t.Fatalf("Do = waited %v, err %v", waited, err)
		}
	}
	if runs != 2 {
		t.Errorf("computation ran %d times across sequential calls, want 2", runs)
	}
}

// A waiter whose own context expires stops waiting immediately; the
// leader is unaffected.
func TestFlightWaiterCancellation(t *testing.T) {
	f := NewFlight()
	key, res := testEntry(t, 8)

	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		f.Do(context.Background(), key, func() (*core.Result, error) {
			close(entered)
			<-release
			return res, nil
		})
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	base := mFlightWaiters.Value()
	go func() {
		_, _, err := f.Do(ctx, key, func() (*core.Result, error) { return res, nil })
		waiterDone <- err
	}()
	for mFlightWaiters.Value() < base+1 {
		runtime.Gosched()
	}
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(release)
	<-leaderDone
}

// A leader that ends in a context error must not poison live waiters:
// they re-enter, elect a new leader, and get a real answer.
func TestFlightWaiterRetriesAfterCancelledLeader(t *testing.T) {
	f := NewFlight()
	key, want := testEntry(t, 8)

	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		f.Do(context.Background(), key, func() (*core.Result, error) {
			close(entered)
			<-release
			return nil, fmt.Errorf("leader gave up: %w", context.Canceled)
		})
	}()
	<-entered

	waiterDone := make(chan *core.Result, 1)
	base := mFlightWaiters.Value()
	go func() {
		res, _, err := f.Do(context.Background(), key, func() (*core.Result, error) {
			return want, nil
		})
		if err != nil {
			t.Errorf("retried waiter: %v", err)
		}
		waiterDone <- res
	}()
	for mFlightWaiters.Value() < base+1 {
		runtime.Gosched()
	}
	close(release)
	if res := <-waiterDone; res != want {
		t.Errorf("waiter got %+v, want its own computation's result after retry", res)
	}
}
