package store

import (
	"errors"

	"overlapsim/internal/core"
	"overlapsim/internal/sweep"
)

// Tiered composes cache backends into one sweep.Cache, ordered fastest
// first. Get walks the tiers in order and, on a hit in a lower tier,
// promotes the entry into every tier above it (write-back promotion),
// so results read from disk are served from memory next time. Put
// writes through to every tier.
//
// Because entries are content-addressed and immutable, promotion and
// write-through need no coherence protocol: concurrent writers of the
// same key converge on identical bytes.
type Tiered struct {
	tiers []sweep.Cache
}

// NewTiered composes the given backends, fastest first, skipping nils.
func NewTiered(tiers ...sweep.Cache) *Tiered {
	t := &Tiered{}
	for _, c := range tiers {
		if c != nil {
			t.tiers = append(t.tiers, c)
		}
	}
	return t
}

// Get implements sweep.Cache with write-back promotion.
func (t *Tiered) Get(key string) (*core.Result, bool) {
	for i, c := range t.tiers {
		res, ok := c.Get(key)
		if !ok {
			continue
		}
		// Promote into the faster tiers. Best effort: a failed promotion
		// costs a slower lookup later, never correctness — but it is not
		// silent, either: each failure lands on the per-backend put-error
		// series, where a persistently failing tier is visible.
		for j := 0; j < i; j++ {
			if err := t.tiers[j].Put(key, res); err == nil {
				mTieredPromotions.Inc()
			} else {
				sweep.NotePutError(t.tiers[j])
			}
		}
		return res, true
	}
	return nil, false
}

// Put implements sweep.Cache, writing through to every tier. It returns
// the joined errors of the tiers that failed; the entry is still stored
// in every tier that succeeded.
func (t *Tiered) Put(key string, res *core.Result) error {
	var errs []error
	for _, c := range t.tiers {
		if err := c.Put(key, res); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Name labels the composite on cache metrics.
func (t *Tiered) Name() string { return "tiered" }
