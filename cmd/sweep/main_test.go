package main

import (
	"strings"
	"testing"

	"overlapsim/internal/sweep"
)

// TestInvalidSpecPrefixOnce pins the -validate failure line: the
// command's log prefix and the spec's point error name the package once
// between them, and the line still ends in the experiment's own error.
func TestInvalidSpecPrefixOnce(t *testing.T) {
	spec, err := sweep.ParseSpec(strings.NewReader(`{"gpus": ["H100"], "models": ["GPT-3 XL"], "base": {"micro_batch": -3}}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = spec.Validate()
	if err == nil {
		t.Fatal("micro-batch -3 validated")
	}
	line := "sweep: " + invalidSpec(err)
	if n := strings.Count(line, "sweep:"); n != 1 {
		t.Errorf("%q names the package %d times, want once", line, n)
	}
	if !strings.HasSuffix(line, "invalid micro-batch -3") {
		t.Errorf("%q does not end in the experiment's error", line)
	}
}
