// Command checksweep reads the JSON a `roughsim -json` sweep prints on
// stdin and exits non-zero unless it decodes as a roughsim.SweepResult
// (unknown fields rejected) with a finite, positive SWM K at every
// point:
//
//	go run ./cmd/roughsim -grid 8 -dim 2 -fmin 5 -fmax 5 -steps 1 -json | go run ./scripts/checksweep
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"roughsim"
)

func main() {
	dec := json.NewDecoder(os.Stdin)
	dec.DisallowUnknownFields()
	var res roughsim.SweepResult
	if err := dec.Decode(&res); err != nil {
		fail("decode: %v", err)
	}
	if len(res.Points) == 0 {
		fail("no sweep points")
	}
	for _, p := range res.Points {
		if !(p.KSWM > 0) || math.IsInf(p.KSWM, 0) {
			fail("K = %v at %g Hz", p.KSWM, p.FreqHz)
		}
	}
	fmt.Printf("checksweep: %d points decode as a SweepResult\n", len(res.Points))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "checksweep: "+format+"\n", args...)
	os.Exit(1)
}
