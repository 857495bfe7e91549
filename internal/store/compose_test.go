package store

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"overlapsim/internal/core"
	"overlapsim/internal/sweep"
)

// Compose builds the one local stack overlapd and the CLIs share: bare
// memory without a cache directory, so the daemon's default lookups are
// labelled backend="mem" on sweep_cache_requests_total, and a Tiered of
// memory in front of the directory with one.
func TestComposeStack(t *testing.T) {
	c, err := Compose("")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*sweep.MemCache); !ok {
		t.Fatalf("Compose(\"\") = %T, want *sweep.MemCache", c)
	}

	c, err = Compose(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered, ok := c.(*Tiered)
	if !ok {
		t.Fatalf("Compose(dir) = %T, want *Tiered", c)
	}
	if len(tiered.tiers) != 2 {
		t.Fatalf("Compose(dir) has %d tiers, want memory then directory", len(tiered.tiers))
	}
	if _, ok := tiered.tiers[0].(*sweep.MemCache); !ok {
		t.Errorf("tier 0 = %T, want *sweep.MemCache", tiered.tiers[0])
	}
	if _, ok := tiered.tiers[1].(*sweep.DirCache); !ok {
		t.Errorf("tier 1 = %T, want *sweep.DirCache", tiered.tiers[1])
	}
}

// A promotion failure must land on the per-backend put-error series,
// not vanish: operators watching sweep_cache_put_errors_total should
// see a persistently failing fast tier even though Get still serves
// the entry from the slower one.
func TestTieredPromotionFailureCounted(t *testing.T) {
	slow := sweep.NewMemCache()
	tiered := NewTiered(failCache{}, slow)
	key, res := testEntry(t, 64)
	if err := slow.Put(key, res); err != nil {
		t.Fatal(err)
	}
	basePromotions := mTieredPromotions.Value()
	baseErrors := sweep.PutErrors(failCache{})
	got, ok := tiered.Get(key)
	if !ok || got.Config.Batch != 64 {
		t.Fatalf("Get = %+v, %v; want hit despite failing fast tier", got, ok)
	}
	if n := mTieredPromotions.Value() - basePromotions; n != 0 {
		t.Errorf("failed promotion counted as %d promotions", n)
	}
	if n := sweep.PutErrors(failCache{}) - baseErrors; n != 1 {
		t.Errorf("promotion failure recorded %d put errors, want 1", n)
	}
}

// A waiter that retries after a cancelled leader is still one coalesced
// caller: the waiter counter must tick once for its whole Do call, not
// once per retry loop.
func TestFlightWaiterCountedOncePerCall(t *testing.T) {
	f := NewFlight()
	key, want := testEntry(t, 8)

	// First in-flight call: ends in a context error, forcing the waiter
	// to retry.
	c1 := &call{done: make(chan struct{})}
	c1.err = fmt.Errorf("leader gave up: %w", context.Canceled)
	f.calls[key] = c1

	base := mFlightWaiters.Value()
	done := make(chan *core.Result, 1)
	go func() {
		res, waited, err := f.Do(context.Background(), key, func() (*core.Result, error) {
			t.Error("waiter ran the computation itself")
			return nil, nil
		})
		if err != nil || !waited {
			t.Errorf("Do = waited %v, err %v; want coalesced success", waited, err)
		}
		done <- res
	}()
	// The waiter has parked on c1 once the counter ticks.
	for mFlightWaiters.Value() < base+1 {
		runtime.Gosched()
	}
	// Swap in a second live call before waking the waiter, so its retry
	// loop finds another leader to wait on.
	c2 := &call{done: make(chan struct{}), res: want}
	f.mu.Lock()
	f.calls[key] = c2
	f.mu.Unlock()
	close(c1.done)

	// Finish c2 while it is still registered, so the waiter's retry finds
	// it whether or not it has re-entered yet. Deleting c2 first would let
	// a waiter that has not yet re-entered become the leader and run fn.
	close(c2.done)
	if res := <-done; res != want {
		t.Fatalf("waiter got %+v, want the second leader's result", res)
	}
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	if n := mFlightWaiters.Value() - base; n != 1 {
		t.Errorf("one coalesced caller counted %d times", n)
	}
}
