package store

import "overlapsim/internal/sweep"

// Compose builds the result cache overlapd and the CLIs share: memory
// alone when cacheDir is empty, otherwise a Tiered of memory in front of
// the cache directory, so directory hits are promoted into memory and
// fresh results are written through to both.
func Compose(cacheDir string) (sweep.Cache, error) {
	if cacheDir == "" {
		return sweep.NewMemCache(), nil
	}
	dc, err := sweep.NewDirCache(cacheDir)
	if err != nil {
		return nil, err
	}
	return NewTiered(sweep.NewMemCache(), dc), nil
}
